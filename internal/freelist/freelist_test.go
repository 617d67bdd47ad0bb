package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLastInFirstOut: Get returns values in reverse order of Put, then the
// zero value, and a collection in between loses nothing.
func TestLastInFirstOut(t *testing.T) {
	var l List[*int]
	if v := l.Get(); v != nil {
		t.Fatalf("an empty zero List returned %p, want nil", v)
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	runtime.GC()
	for _, want := range []*int{b, a, nil} {
		if got := l.Get(); got != want {
			t.Fatalf("Get = %p, want %p", got, want)
		}
	}
}

// TestConcurrentUse: goroutines taking and returning values concurrently
// never share one and never lose one (run under -race).
func TestConcurrentUse(t *testing.T) {
	const workers, rounds = 8, 1000
	var l List[*int]
	var fresh atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := l.Get()
				if v == nil {
					v = new(int)
					fresh.Add(1)
				}
				*v++ // a value shared by two goroutines is a race
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	total, n := 0, int(fresh.Load())
	for i := 0; i < n; i++ {
		total += *l.Get()
	}
	if total != workers*rounds || n > workers {
		t.Fatalf("%d values counted %d uses; want at most %d values and %d uses", n, total, workers, workers*rounds)
	}
}
