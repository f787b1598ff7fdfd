package chaos

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
)

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

// TestPooledSetupAllocatesLess pins what worker pooling buys: the
// per-run set-up of a pooled worker (restore the memory snapshot,
// reset the checker and injector in place) must allocate less than a
// fresh one (assemble the workload, a new checker and a new injector).
func TestPooledSetupAllocatesLess(t *testing.T) {
	cfg := Config{}.withDefaults()
	fresh := testing.AllocsPerRun(3, func() {
		w := buildWorkload(cfg)
		invariant.New(w.regions)
		inj := faultinject.New(faultinject.Config{})
		inj.SetRegions(w.regions)
		inj.SetCores(cfg.Cores)
	})
	ws := newCampaignWorker(cfg)
	pooled := testing.AllocsPerRun(3, func() {
		ws.w.space.Restore(ws.snap)
		ws.chk.Reset()
		ws.inj.Reset(faultinject.Config{})
	})
	t.Logf("set-up allocations: fresh %.0f, pooled %.0f", fresh, pooled)
	if pooled >= fresh {
		t.Errorf("pooled set-up made %.0f allocations, not below fresh %.0f", pooled, fresh)
	}
}

// TestParallelCampaignSpeedup requires the pool to pay off: on a host
// with at least 4 CPUs, a campaign at the default width (GOMAXPROCS)
// must run at least twice as fast as the serial engine. It skips on
// smaller hosts and under the race detector, whose overhead swamps the
// ratio.
func TestParallelCampaignSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs; the speedup gate needs at least 4", runtime.NumCPU())
	}
	if raceEnabled() {
		t.Skip("race detector on")
	}
	// Three runs per side average out scheduling noise.
	elapsed := func(parallel int) time.Duration {
		start := time.Now()
		for i := 0; i < 3; i++ {
			Run(Config{Seeds: 4, Threads: 4, Iters: 200, Parallel: parallel})
		}
		return time.Since(start)
	}
	serial, par := elapsed(1), elapsed(0)
	speedup := float64(serial) / float64(par)
	t.Logf("campaign speedup %.2fx on %d CPUs (serial %v, parallel %v)", speedup, runtime.NumCPU(), serial, par)
	if speedup < 2 {
		t.Errorf("parallel campaign speedup %.2fx < 2x on %d CPUs", speedup, runtime.NumCPU())
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
