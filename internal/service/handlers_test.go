package service

import (
	"net/url"
	"testing"
)

// FuzzQueryGet: queryGet answers exactly what url.ParseQuery(raw).Get(key)
// does, for any raw query and key.
func FuzzQueryGet(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"workload=sql;x=1&workload=pca", "workload"}, // ';' voids the pair
		{"workload=%zz&workload=sql", "workload"},     // bad escape in the value
		{"work%zzload=pca&workload=sql", "workload"},  // bad escape in the key
		{"workload=a+b", "workload"},                  // '+' is a space
		{"workload=a%2Bb", "workload"},                // an escaped '+'
		{"work%6Coad=kmeans", "workload"},             // an escaped key
		{"workload=sql&workload=kmeans", "workload"},  // the first wins
		{"=x&workload=sql", ""},                       // an empty key
		{"workload=sql&", "workload"},                 // a trailing '&'
		{"&&workload", "workload"},                    // empty pairs, no '='
		{"workload=&inputBytes=5", "workload"},        // an empty value
		{"inputBytes=1073741824&workload=kmeans", "inputBytes"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		q, _ := url.ParseQuery(raw) // the pairs it could parse, whatever it rejected
		if got, want := queryGet(raw, key), q.Get(key); got != want {
			t.Fatalf("queryGet(%q, %q) = %q, url.ParseQuery(...).Get = %q", raw, key, got, want)
		}
	})
}
