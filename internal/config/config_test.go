package config

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chopper/internal/rdd"
)

func sampleFile() *File {
	return &File{
		Workload: "kmeans",
		Entries: []Entry{
			{Signature: "aaa111", Scheme: rdd.SchemeHash, NumPartitions: 210},
			{Signature: "bbb222", Scheme: rdd.SchemeRange, NumPartitions: 720},
			{Signature: "ccc333", Scheme: rdd.SchemeHash, NumPartitions: 300, InsertRepartition: true},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "kmeans" || len(got.Entries) != 3 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	e, ok := got.Lookup("bbb222")
	if !ok || e.Scheme != rdd.SchemeRange || e.NumPartitions != 720 {
		t.Fatalf("entry wrong: %+v", e)
	}
	r, ok := got.Lookup("ccc333")
	if !ok || !r.InsertRepartition {
		t.Fatalf("repartition flag lost: %+v", r)
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
workload sql

stage s1 hash 100
  # indented comment
stage s2 range 50 repartition
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Workload != "sql" || len(f.Entries) != 2 {
		t.Fatalf("parse wrong: %+v", f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"stage onlysig",
		"stage s hash notanumber",
		"stage s bogus 10",
		"stage s hash 0",
		"stage s hash 10 wat",
		"bogus directive",
		"workload",
		"stage s hash 10\nstage s hash 20", // duplicate
	}
	for i, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail: %q", i, src)
		}
	}
}

func TestSetReplaces(t *testing.T) {
	f := sampleFile()
	f.Set(Entry{Signature: "aaa111", Scheme: rdd.SchemeRange, NumPartitions: 99})
	if len(f.Entries) != 3 {
		t.Fatalf("set should replace, not append")
	}
	e, _ := f.Lookup("aaa111")
	if e.NumPartitions != 99 {
		t.Fatalf("replace failed")
	}
	f.Set(Entry{Signature: "new", Scheme: rdd.SchemeHash, NumPartitions: 1})
	if len(f.Entries) != 4 {
		t.Fatalf("set should append new signatures")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wl.conf")
	if err := Save(path, sampleFile()); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 3 {
		t.Fatalf("load lost entries")
	}
	if _, err := Load(filepath.Join(dir, "missing.conf")); err == nil {
		t.Fatalf("missing file should error")
	}
}

func TestStaticConfigurator(t *testing.T) {
	s := &Static{F: sampleFile()}
	spec, ok := s.Scheme("aaa111")
	if !ok || spec.NumPartitions != 210 || spec.Scheme != rdd.SchemeHash {
		t.Fatalf("static lookup wrong: %+v", spec)
	}
	if _, ok := s.Scheme("zzz"); ok {
		t.Fatalf("unknown signature should miss")
	}
	empty := &Static{}
	if _, ok := empty.Scheme("aaa111"); ok {
		t.Fatalf("nil file should miss")
	}
	s.Refresh() // must not panic
}

func TestDynamicConfiguratorReloads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dyn.conf")
	if err := Save(path, sampleFile()); err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(path)
	if spec, ok := d.Scheme("aaa111"); !ok || spec.NumPartitions != 210 {
		t.Fatalf("initial load failed: %+v", spec)
	}

	updated := sampleFile()
	updated.Set(Entry{Signature: "aaa111", Scheme: rdd.SchemeHash, NumPartitions: 500})
	if err := Save(path, updated); err != nil {
		t.Fatal(err)
	}
	// Ensure the mtime moves even on coarse-grained filesystems.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	d.Refresh()
	if spec, _ := d.Scheme("aaa111"); spec.NumPartitions != 500 {
		t.Fatalf("dynamic update not adopted: %+v", spec)
	}
}

func TestDynamicMissingFileTolerated(t *testing.T) {
	d := NewDynamic(filepath.Join(t.TempDir(), "absent.conf"))
	if _, ok := d.Scheme("x"); ok {
		t.Fatalf("missing file should yield no schemes")
	}
	d.Refresh() // still no panic
}

func TestDynamicKeepsLastGoodOnCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dyn.conf")
	if err := Save(path, sampleFile()); err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(path)
	if err := os.WriteFile(path, []byte("stage broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	_ = os.Chtimes(path, future, future)
	d.Refresh()
	if spec, ok := d.Scheme("aaa111"); !ok || spec.NumPartitions != 210 {
		t.Fatalf("corrupted update should keep last good config: %+v", spec)
	}
}

// Save writes the file to disk.
func Save(path string, f *File) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	return f.Write(w)
}
