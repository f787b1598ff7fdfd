package experiments

import (
	"runtime"
	"testing"
)

// maxM2AllocMB bounds the heap bytes one warm RunM2(Quick) allocates.
// Releasing every machine after its run lets the next cell reuse its
// cache tag chunks, TLB and gshare tables. A call allocated ~18 MB
// before the experiments released their machines and ~5.3 MB after
// (go test -bench -benchmem on a RunM2(Quick) loop; this test itself
// logs 17.4 and 5.1 MB).
const maxM2AllocMB = 10

// TestM2AllocationGuard pins the recycling of experiment machines:
// after a warm-up has filled the free lists, a multiplexing sweep must
// reuse host tables rather than allocate them. Not parallel:
// concurrent tests would count against the bound.
func TestM2AllocationGuard(t *testing.T) {
	if _, err := RunM2(Quick); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunM2(Quick); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("%.1f MB allocated per warm RunM2(Quick)", mb)
	if mb > maxM2AllocMB {
		t.Errorf("warm RunM2(Quick) allocated %.1f MB, want at most %d", mb, maxM2AllocMB)
	}
}
