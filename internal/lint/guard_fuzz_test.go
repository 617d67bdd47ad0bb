package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chopper/internal/lint"
)

// FuzzLockContract throws arbitrary Go source at the guard pipeline
// (type discovery, guard inference, the lock dataflow, and all four rule
// checks) and asserts two properties: the analyzers never panic, and two
// independent loads of the same source produce byte-identical findings —
// the determinism the golden tests and CI diffing depend on.
func FuzzLockContract(f *testing.F) {
	seeds := []string{
		`package core

import "sync"

type db struct {
	mu    sync.RWMutex
	items map[string]int
}

func (d *db) Put(k string, v int) {
	d.mu.Lock()
	d.items[k] = v
	d.mu.Unlock()
}

func (d *db) Peek(k string) int { return d.items[k] }
`,
		`package core

import "sync"

type jdb struct {
	mu       sync.Mutex
	observer func(string)
	runs     map[string]int
}

func (d *jdb) Record(k string) {
	d.mu.Lock()
	d.runs[k]++
	d.mu.Unlock()
	if d.observer != nil {
		d.observer(k)
	}
}
`,
		`package core

import "sync"

type cache struct {
	mu    sync.RWMutex
	items map[string]int
}

func (d *cache) Ensure(k string) {
	d.mu.RLock()
	_, ok := d.items[k]
	d.mu.RUnlock()
	if !ok {
		d.mu.Lock()
		d.items[k] = 1
		d.mu.Unlock()
	}
}

func (d *cache) All() map[string]int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := map[string]int{}
	for k, v := range d.items {
		out[k] = v
	}
	return out
}
`,
		`package core

import "sync"

type weird struct{ mu sync.Mutex }

func (w *weird) odd() {
	defer w.mu.Unlock()
	w.mu.Lock()
	go func() {
		w.mu.Lock()
		w.mu.Unlock()
	}()
}
`,
		"package core\n\nfunc broken( {",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, ok := guardFindings(t, src)
		if !ok {
			return // unloadable input: nothing to check
		}
		second, _ := guardFindings(t, src)
		if first != second {
			t.Fatalf("nondeterministic findings:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})
}

// guardFindings plants src as internal/core of a throwaway module and runs
// the guard family over it, returning the rendered findings. ok is false
// when the source does not even load.
func guardFindings(t *testing.T, src string) (string, bool) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.Load(dir)
	if err != nil {
		return "", false
	}
	diags := lint.Run(pkg, lint.Guard())
	for i := range diags {
		// Basename the paths: each load plants the module in a fresh temp
		// dir, and the determinism check must compare findings, not dirs.
		diags[i].File = filepath.Base(diags[i].File)
	}
	var b strings.Builder
	if err := lint.WriteText(&b, diags); err != nil {
		t.Fatal(err)
	}
	return b.String(), true
}
