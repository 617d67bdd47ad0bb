package driver

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapWithPreservesIndexOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 64} {
		got, err := MapWith(parallel, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestMapWithReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom-3")
	for _, parallel := range []int{2, 8} {
		_, err := MapWith(parallel, 32, func(i int) (int, error) {
			if i == 3 {
				return 0, wantErr
			}
			if i == 20 {
				return 0, errors.New("boom-20")
			}
			return i, nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("parallel=%d: err = %v, want lowest-index error %v", parallel, err, wantErr)
		}
	}
}

func TestMapWithBoundsParallelism(t *testing.T) {
	const parallel = 4
	var inFlight, peak atomic.Int64
	_, err := MapWith(parallel, 64, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > parallel {
		t.Fatalf("peak in-flight jobs = %d, want <= %d", p, parallel)
	}
}

func TestSetParallelismDefaults(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d, want >= 1 (GOMAXPROCS default)", got)
	}
}

func TestRunPropagatesError(t *testing.T) {
	_, err := Map(10, func(i int) (struct{}, error) {
		if i == 7 {
			return struct{}{}, fmt.Errorf("job %d failed", i)
		}
		return struct{}{}, nil
	})
	if err == nil || err.Error() != "job 7 failed" {
		t.Fatalf("err = %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
}
