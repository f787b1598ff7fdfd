// Package freelist recycles the host-side tables of simulated cores —
// cache tag chunks, TLB arrays, branch predictor tables — across the
// machines a process builds. The experiments and campaigns build a
// fresh machine per run, and without recycling every run hands its
// tables to the garbage collector.
package freelist

import "sync"

// List is a mutex-guarded LIFO of slices per length, safe for
// concurrent use; the zero value is ready. Take zeroes what it hands
// out, so a recycled slice is indistinguishable from a fresh one. A
// list never shrinks: it keeps the most slices ever free at once.
type List[T any] struct {
	mu    sync.Mutex
	byLen map[int][][]T
}

// Take returns a zeroed slice of length n, recycled when one is free.
func (l *List[T]) Take(n int) []T {
	l.mu.Lock()
	free := l.byLen[n]
	if k := len(free) - 1; k >= 0 {
		s := free[k]
		free[k] = nil
		l.byLen[n] = free[:k]
		l.mu.Unlock()
		clear(s)
		return s
	}
	l.mu.Unlock()
	return make([]T, n)
}

// Put hands slices back for later Takes, skipping nil ones. The caller
// must drop every reference to them: a slice put twice, or used after
// Put, would be shared with whoever takes it next.
func (l *List[T]) Put(ss ...[]T) {
	l.mu.Lock()
	if l.byLen == nil {
		l.byLen = make(map[int][][]T)
	}
	// One map lookup per run of equal lengths: a cache level puts all
	// its chunks, of one length, in a single call.
	n, free := -1, [][]T(nil)
	for _, s := range ss {
		if s == nil {
			continue
		}
		if len(s) != n {
			if n >= 0 {
				l.byLen[n] = free
			}
			n, free = len(s), l.byLen[len(s)]
		}
		free = append(free, s)
	}
	if n >= 0 {
		l.byLen[n] = free
	}
	l.mu.Unlock()
}
