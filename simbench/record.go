package main

import (
	"sort"
	"time"
)

// counts accumulates a pass's simulated counts by metric name. They
// come from the simulator's own results, so they repeat exactly for a
// seed.
type counts map[string]uint64

// countNames lists every count the ledger prints, in print order.
var countNames = []string{
	"machine.sim_cycles", "machine.steps",
	"pmu.instructions", "cache.l1d_misses", "cache.llc_misses",
	"tlb.dtlb_misses", "branch.mispredicts",
	"kernel.ctx_switches", "kernel.migrations", "kernel.rewinds", "kernel.folds",
	"faultinject.injected", "invariant.reads_checked",
	"output.bytes",
}

// spans sums the process CPU time of the driver's calls into each
// layer. A nil *spans records nothing, which is how untraced passes
// run.
type spans struct {
	d map[string]time.Duration
}

// spanNames lists every span the ledger prints.
var spanNames = []string{
	"workloads.build_s", "mem.snapshot_s", "mem.restore_s",
	"machine.new_s", "machine.run_s",
	"chaos.run_s",
	"experiments.M1_s", "experiments.M2_s", "experiments.A3_s",
	"experiments.F8_s", "experiments.A4_s", "experiments.rest_s",
	"output.render_s",
}

func newSpans() *spans { return &spans{d: map[string]time.Duration{}} }

// start opens a span on the process CPU clock; it reads no clock when
// s is nil.
func (s *spans) start() time.Duration {
	if s == nil {
		return 0
	}
	return processCPU()
}

// end closes the span opened at t0 and charges it to name.
func (s *spans) end(name string, t0 time.Duration) {
	if s != nil {
		s.d[name] += processCPU() - t0
	}
}

// merge adds o's spans into s.
func (s *spans) merge(o *spans) {
	for k, v := range o.d {
		s.d[k] += v
	}
}

// medianSpans is the per-name median over the set-up repetitions.
func medianSpans(reps []*spans) *spans {
	out := newSpans()
	for _, name := range spanNames {
		ds := make([]time.Duration, 0, len(reps))
		for _, r := range reps {
			ds = append(ds, r.d[name])
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		if len(ds) > 0 && ds[len(ds)/2] > 0 {
			out.d[name] = ds[len(ds)/2]
		}
	}
	return out
}
