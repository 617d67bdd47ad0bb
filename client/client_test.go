package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// server runs h on loopback for the test's lifetime.
func server(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	return s
}

// deadURL is the address of a server that no longer listens: a request to
// it fails at the transport level.
func deadURL(t *testing.T) string {
	t.Helper()
	s := httptest.NewServer(http.NotFoundHandler())
	s.Close()
	return s.URL
}

// TestReadURIs: the read calls send the request URI url.Values.Encode made —
// keys sorted, values query-escaped — with and without inputBytes.
func TestReadURIs(t *testing.T) {
	var got atomic.Value
	s := server(t, func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.RequestURI)
		_, _ = w.Write([]byte("{}"))
	})
	c := New(s.URL)
	ctx := context.Background()
	calls := []struct {
		path string
		call func(workload string, inputBytes int64) error
	}{
		{"/v1/recommend", func(w string, n int64) error { _, err := c.Recommend(ctx, w, n); return err }},
		{"/v1/recommend", func(w string, n int64) error { _, err := c.RecommendRaw(ctx, w, n); return err }},
		{"/v1/explain", func(w string, n int64) error { _, err := c.Explain(ctx, w, n); return err }},
	}
	for _, call := range calls {
		for _, workload := range []string{"kmeans", "a b&c=d/é?%+;#"} {
			for _, inputBytes := range []int64{0, -1, 1, 1 << 30, 1<<63 - 1} {
				q := url.Values{"workload": {workload}}
				if inputBytes > 0 {
					q.Set("inputBytes", strconv.FormatInt(inputBytes, 10))
				}
				want := call.path + "?" + q.Encode()
				if err := call.call(workload, inputBytes); err != nil {
					t.Fatal(err)
				}
				if uri := got.Load(); uri != want {
					t.Errorf("%s(%q, %d) sent %q, want %q", call.path, workload, inputBytes, uri, want)
				}
			}
		}
	}
}

// TestReadBody: a declared length is read exactly, a chunked body whole, and
// a body cut short of its declared length is an error, never a short answer.
func TestReadBody(t *testing.T) {
	long := strings.Repeat("0123456789", 1000)
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    string
		fails   bool
	}{
		{"content-length", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"ok":true}`))
		}, `{"ok":true}`, false},
		{"empty", func(w http.ResponseWriter, r *http.Request) {}, "", false},
		{"chunked", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(long[:5000]))
			w.(http.Flusher).Flush()
			_, _ = w.Write([]byte(long[5000:]))
		}, long, false},
		{"cut short", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "100")
			_, _ = w.Write([]byte("only ten b"))
		}, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sawLength int64
			s := server(t, tc.handler)
			c := New(s.URL)
			c.HTTP.Transport = lengthSpy{&sawLength}
			raw, err := c.RecommendRaw(context.Background(), "kmeans", 0)
			var apiErr *APIError
			switch {
			case tc.fails:
				if err == nil || errors.As(err, &apiErr) {
					t.Fatalf("got %q, %v; want a read error", raw, err)
				}
			case err != nil:
				t.Fatal(err)
			case string(raw) != tc.want:
				t.Fatalf("got %d bytes, want %d", len(raw), len(tc.want))
			}
			if chunked := sawLength < 0; chunked != (tc.name == "chunked") {
				t.Fatalf("declared length %d: the case does not exercise what it names", sawLength)
			}
		})
	}
}

// lengthSpy records the Content-Length each response declared.
type lengthSpy struct{ length *int64 }

func (l lengthSpy) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		*l.length = resp.ContentLength
	}
	return resp, err
}

// TestDeclaredLengthAboveCapIsNotAllocated: a peer declaring a body far
// larger than it sends cannot make the client allocate the declared size.
func TestDeclaredLengthAboveCapIsNotAllocated(t *testing.T) {
	const declared = 64 << 20
	s := server(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		_, _ = w.Write([]byte("x"))
	})
	c := New(s.URL)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.RecommendRaw(context.Background(), "kmeans", 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body cut short of its declared length was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= declared/2 {
		t.Fatalf("reading a 1-byte body declared at %d bytes allocated %d bytes", declared, grew)
	}
}

// TestFallbacks: transport failures move on through Fallbacks in order and
// stop at the first target that answers; an *APIError is the daemon's
// answer and is never failed over.
func TestFallbacks(t *testing.T) {
	var hits [2]atomic.Int64
	live := func(i int) string {
		return server(t, func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			_, _ = w.Write([]byte("{}"))
		}).URL
	}
	first, second := live(0), live(1)
	ctx := context.Background()

	c := &Client{Base: deadURL(t), Fallbacks: []string{deadURL(t), first, second}}
	if _, err := c.RecommendRaw(ctx, "kmeans", 0); err != nil {
		t.Fatal(err)
	}
	if hits[0].Load() != 1 || hits[1].Load() != 0 {
		t.Fatalf("hits %d, %d: want the first live fallback once and the second never", hits[0].Load(), hits[1].Load())
	}

	conflict := server(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"status":409,"error":"not trained"}`))
	}).URL
	c = &Client{Base: conflict, Fallbacks: []string{first, second}}
	_, err := c.RecommendRaw(ctx, "kmeans", 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("got %v, want the 409 as *APIError", err)
	}
	if hits[0].Load() != 1 || hits[1].Load() != 0 {
		t.Fatal("an *APIError was failed over")
	}

	c = &Client{Base: deadURL(t), Fallbacks: []string{deadURL(t)}}
	if _, err := c.RecommendRaw(ctx, "kmeans", 0); err == nil || errors.As(err, &apiErr) {
		t.Fatalf("every target down: got %v, want a transport error", err)
	}
}

// TestAPIError: a non-2xx reply maps to *APIError with the body's message
// (or its trimmed text) and Retry-After as a duration when it is a positive
// number of seconds.
func TestAPIError(t *testing.T) {
	for _, tc := range []struct {
		status     int
		retryAfter string
		body       string
		want       APIError
	}{
		{http.StatusTooManyRequests, "3", `{"status":429,"error":"queue full","retryAfterSeconds":3}`,
			APIError{Status: 429, Message: "queue full", RetryAfter: 3 * time.Second}},
		{http.StatusTooManyRequests, "soon", `{"status":429,"error":"queue full"}`,
			APIError{Status: 429, Message: "queue full"}},
		{http.StatusTooManyRequests, "0", `{"status":429,"error":"queue full"}`,
			APIError{Status: 429, Message: "queue full"}},
		{http.StatusServiceUnavailable, "", "draining\n",
			APIError{Status: 503, Message: "draining"}},
	} {
		s := server(t, func(w http.ResponseWriter, r *http.Request) {
			if tc.retryAfter != "" {
				w.Header().Set("Retry-After", tc.retryAfter)
			}
			w.WriteHeader(tc.status)
			_, _ = w.Write([]byte(tc.body))
		})
		_, err := New(s.URL).Recommend(context.Background(), "kmeans", 0)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || *apiErr != tc.want {
			t.Errorf("status %d, Retry-After %q: got %v, want %+v", tc.status, tc.retryAfter, err, tc.want)
		}
	}
}
