package chaos

import "testing"

// maxRunAllocs bounds the heap allocations of one warm single-seed
// default campaign. Recycled cache tag chunks, allocation-free read
// arming and allocation-free work stealing keep it near 1.1k; without
// them it was ~103k: a heap object per armed read and per steal, plus
// the tag chunks each run's machine threw away.
const maxRunAllocs = 2000

// TestRunAllocationGuard pins the allocation-free chaos run: after a
// warm-up has filled the chunk free lists, a run must reuse tag memory
// rather than allocate it. Not parallel: concurrent tests would count
// against the bound.
func TestRunAllocationGuard(t *testing.T) {
	cfg := Config{Seeds: 1, Parallel: 1}
	Run(cfg)
	allocs := testing.AllocsPerRun(2, func() { Run(cfg) })
	t.Logf("%.0f allocations per single-seed campaign", allocs)
	if allocs > maxRunAllocs {
		t.Errorf("single-seed campaign made %.0f allocations, want at most %d", allocs, maxRunAllocs)
	}
}
