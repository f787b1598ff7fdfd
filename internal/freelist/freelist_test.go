package freelist

import (
	"sync"
	"testing"
)

// TestTakeRecyclesZeroed pins the List contract: Take hands back the
// most recently put slice of the requested length, zeroed; other
// lengths and nil puts never mix in.
func TestTakeRecyclesZeroed(t *testing.T) {
	var l List[uint64]
	a, b := l.Take(8), l.Take(8)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	l.Put(a, nil, b)
	l.Put(nil)
	if got := l.Take(8); &got[0] != &b[0] {
		t.Error("Take did not return the most recently put slice")
	}
	if got := l.Take(4); len(got) != 4 || &got[0] == &a[0] {
		t.Error("Take(4) reused a slice of another length")
	}
	got := l.Take(8)
	if &got[0] != &a[0] {
		t.Fatal("Take did not recycle the first put slice")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled slice[%d] = %d, want 0", i, v)
		}
	}
	if got := l.Take(8); &got[0] == &a[0] || &got[0] == &b[0] {
		t.Error("Take on an empty list returned a recycled slice")
	}
}

// TestFreeListConcurrent has goroutines take, mark, check and put
// slices of two lengths through one shared list at once; run it under
// -race. A slice handed to two holders at once, or not zeroed on take,
// shows up as another goroutine's mark.
func TestFreeListConcurrent(t *testing.T) {
	var l List[uint64]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(mark uint64) {
			defer wg.Done()
			for round := 0; round < 500; round++ {
				held := [][]uint64{l.Take(64), l.Take(64 + round%2)}
				for _, s := range held {
					for i := range s {
						if s[i] != 0 {
							t.Errorf("taken slice holds %d, want zero", s[i])
							return
						}
						s[i] = mark
					}
				}
				for _, s := range held {
					for i := range s {
						if s[i] != mark {
							t.Errorf("held slice changed to %d under its holder %d", s[i], mark)
							return
						}
					}
				}
				l.Put(held...)
			}
		}(uint64(g))
	}
	wg.Wait()
}
