// Package freelist provides a locked stack of reusable scratch values,
// shared by the goroutines of every engine in the process.
//
// It stands where a sync.Pool would, minus one property: the garbage
// collector never empties a List. How often a caller has to allocate fresh
// scratch then depends only on how many values were ever in use at once,
// not on when collections ran, so repeated runs of a workload allocate the
// same bytes — the benchmark bounds allocation per round by exact counts.
// A List holds at most that many values; callers empty a value of
// everything it references before putting it back.
package freelist

import "sync"

// List is a stack of values put back for reuse. The zero List is empty and
// ready to use; a List must not be copied after first use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the value put last, or returns the zero T when the list is empty.
func (l *List[T]) Get() (v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.free); k > 0 {
		var zero T
		v, l.free[k-1], l.free = l.free[k-1], zero, l.free[:k-1] // no second reference stays
	}
	return v
}

// Put pushes v for a later Get.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
