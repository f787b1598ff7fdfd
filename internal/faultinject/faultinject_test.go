package faultinject

import (
	"slices"
	"testing"

	"limitsim/internal/invariant"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// sweepWorkload is one freshly built instance of the single-thread read
// loop used by the preemption sweep (a fresh memory space per run, so
// runs never share state).
type sweepWorkload struct {
	prog    *isa.Program
	space   *mem.Space
	buf     uint64
	regions [][2]int
	want    uint64
}

const (
	sweepIters = 50
	sweepK     = 20
)

func buildSweepWorkload() *sweepWorkload {
	w := &sweepWorkload{space: mem.NewSpace()}
	table := limit.AllocTable(w.space, 1)
	b := isa.NewBuilder()
	e := limit.NewEmitter(b, limit.ModeStock, table)
	ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
	w.buf = w.space.AllocWords(sweepIters)
	e.EmitInit()
	b.MovImm(isa.R12, int64(w.buf))
	b.MovImm(isa.R8, 0)
	b.Label("loop")
	e.EmitMeasureStart(isa.R4, isa.R5, ctr)
	b.Compute(sweepK)
	e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
	b.Shl(isa.R13, isa.R8, 3)
	b.Add(isa.R13, isa.R13, isa.R12)
	b.Store(isa.R13, 0, isa.R6)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, sweepIters)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	e.EmitFinish()
	w.prog = b.MustBuild()
	w.regions = e.Regions()
	r := w.regions[0]
	w.want = uint64(sweepK) + uint64(r[1]-r[0])
	return w
}

// TestExhaustivePreemptionSweep forces a context switch at every single
// instruction boundary inside the read-critical regions — the strongest
// version of the paper's adversarial schedule — and asserts that the
// fixup patch keeps every measurement exact: zero invariant violations,
// every rewind landing on a region start, and every stored delta within
// the re-execution slack of its static cost.
func TestExhaustivePreemptionSweep(t *testing.T) {
	probe := buildSweepWorkload()
	if len(probe.regions) == 0 {
		t.Fatal("workload emitted no read-critical regions")
	}

	// The 9-bit write width folds every 512 instructions, so folds land
	// during the sweep; K is small so reads dominate execution.
	for _, region := range probe.regions {
		for pc := region[0]; pc < region[1]; pc++ {
			w := buildSweepWorkload()

			feats := pmu.DefaultFeatures()
			feats.WriteWidth = 9
			m := machine.New(machine.Config{
				NumCores: 1,
				PMU:      feats,
				Kernel:   kernel.DefaultConfig(),
			})

			inj := New(Config{})
			inj.ArmPreemptAt(pc)
			inj.Attach(m.Kern)

			chk := invariant.New(w.regions)
			chk.Attach(m.Kern)

			proc := m.Kern.NewProcess(w.prog, w.space)
			th := m.Kern.Spawn(proc, "sweep", 0, 7)

			res := m.Run(machine.RunLimits{MaxSteps: 5_000_000})
			if res.Err != nil {
				t.Fatalf("pc %d: run failed: %v", pc, res.Err)
			}
			if !res.AllDone {
				t.Fatalf("pc %d: run incomplete after %d steps", pc, res.Steps)
			}
			if inj.Armed() {
				t.Fatalf("pc %d: armed preemption never fired", pc)
			}
			if inj.Stats.ForcedPreemptions != 1 {
				t.Fatalf("pc %d: want exactly 1 forced preemption, got %d", pc, inj.Stats.ForcedPreemptions)
			}

			chk.Finalize(proc, m.Kern.Threads(), 0)
			for _, v := range chk.Violations() {
				t.Errorf("pc %d: invariant violation: %v", pc, v)
			}
			if chk.ReadsCompleted == 0 {
				t.Fatalf("pc %d: checker observed no completed reads", pc)
			}

			// A preemption strictly inside a region interrupts the read
			// mid-sequence; the fixup must have rewound it.
			if pc > region[0] && th.Stats.FixupRewinds == 0 {
				t.Errorf("pc %d: mid-region preemption produced no rewind", pc)
			}

			// Value oracle: a torn read would shift a delta by the
			// 2^9-cycle fold chunk, far beyond the re-execution slack.
			for i := 0; i < sweepIters; i++ {
				d := w.space.Read64(w.buf + uint64(i)*8)
				if d < w.want || d > w.want+128 {
					t.Errorf("pc %d: delta[%d] = %d outside [%d,%d]",
						pc, i, d, w.want, w.want+128)
				}
			}
		}
	}
}

// TestInjectorDeterminism replays one storm configuration twice with
// the same seed and requires identical fault counts — the property that
// makes a chaos campaign replayable.
func TestInjectorDeterminism(t *testing.T) {
	run := func() Stats {
		w := buildSweepWorkload()
		feats := pmu.DefaultFeatures()
		feats.WriteWidth = 9
		kcfg := kernel.DefaultConfig()
		kcfg.Seed = 42
		kcfg.Quantum = 10_000
		m := machine.New(machine.Config{NumCores: 2, PMU: feats, Kernel: kcfg})
		inj := New(Config{
			Seed:             99,
			PreemptInRegions: true,
			PreemptEvery:     101,
			SpuriousPMIEvery: 53,
			DelayPMI:         true,
			MigrationStorm:   true,
			FlushEvery:       211,
		})
		inj.SetRegions(w.regions)
		inj.SetCores(2)
		inj.Attach(m.Kern)
		proc := m.Kern.NewProcess(w.prog, w.space)
		m.Kern.Spawn(proc, "det", 0, 7)
		if res := m.Run(machine.RunLimits{MaxSteps: 5_000_000}); res.Err != nil {
			t.Fatalf("run failed: %v", res.Err)
		}
		return inj.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different fault stats:\n%+v\n%+v", a, b)
	}
	if a.Total() == 0 {
		t.Error("storm configuration injected nothing")
	}
}

// TestRegionBudgetPreventsLivelock checks the forced-preemption budget:
// with preempt-at-every-boundary active inside regions, a fixup-enabled
// thread must still finish (each read completes after the budget runs
// dry) rather than rewinding forever.
func TestRegionBudgetPreventsLivelock(t *testing.T) {
	w := buildSweepWorkload()
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 9
	m := machine.New(machine.Config{NumCores: 1, PMU: feats, Kernel: kernel.DefaultConfig()})
	inj := New(Config{Seed: 1, PreemptInRegions: true, RegionBudget: 4})
	inj.SetRegions(w.regions)
	inj.Attach(m.Kern)
	proc := m.Kern.NewProcess(w.prog, w.space)
	m.Kern.Spawn(proc, "budget", 0, 7)
	res := m.Run(machine.RunLimits{MaxSteps: 5_000_000})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !res.AllDone {
		t.Fatal("preempt-every-boundary livelocked despite the region budget")
	}
	if inj.Stats.ForcedPreemptions == 0 {
		t.Error("no forced preemptions delivered")
	}
	for i := 0; i < sweepIters; i++ {
		d := w.space.Read64(w.buf + uint64(i)*8)
		if d < w.want || d > w.want+256 {
			t.Errorf("delta[%d] = %d outside [%d,%d]", i, d, w.want, w.want+256)
		}
	}
	_ = proc
}

// TestResetBehavesAsFresh cuts four-thread clone storms short — at
// 1,000 steps core 0 withholds an overflow bit, at 1,480 thread 1 is in
// a signal hold window — then resets the injector and requires it to
// behave exactly like a fresh one on a two-thread run: same fault stats
// and same stored deltas. Overflows are delivered as signals, so the
// hold windows see traffic.
func TestResetBehavesAsFresh(t *testing.T) {
	small := Config{
		Seed:                  5,
		PreemptInRegions:      true,
		RegionBudget:          3,
		PreemptEvery:          37,
		SpuriousPMIEvery:      29,
		DelayPMI:              true,
		MigrationStorm:        true,
		SignalDelayBoundaries: 3,
	}
	newMachine := func(seed uint64) *machine.Machine {
		feats := pmu.DefaultFeatures()
		feats.WriteWidth = 9
		kcfg := kernel.DefaultConfig()
		kcfg.Seed = seed
		kcfg.LimitOverflow = kernel.SignalUser
		return machine.New(machine.Config{NumCores: 2, PMU: feats, Kernel: kcfg})
	}
	type outcome struct {
		stats  Stats
		deltas [sweepIters]uint64
	}
	runSmall := func(inj *Injector) outcome {
		w := buildSweepWorkload()
		m := newMachine(3)
		defer m.Release()
		inj.SetRegions(w.regions)
		inj.SetCores(2)
		inj.Attach(m.Kern)
		proc := m.Kern.NewProcess(w.prog, w.space)
		m.Kern.Spawn(proc, "a", 0, 7)
		m.Kern.Spawn(proc, "b", 1, 8)
		if res := m.Run(machine.RunLimits{MaxSteps: 5_000_000}); res.Err != nil || !res.AllDone {
			t.Fatalf("small run: err %v, all done %v", res.Err, res.AllDone)
		}
		var o outcome
		o.stats = inj.Stats
		for i := range o.deltas {
			o.deltas[i] = w.space.Read64(w.buf + uint64(i)*8)
		}
		return o
	}
	want := runSmall(New(small))
	if want.stats.HeldSignals == 0 || want.stats.DelayedPMIs == 0 {
		t.Fatalf("the two-thread run must hold signals and delay PMIs: %+v", want.stats)
	}

	for _, cut := range []uint64{1_000, 1_480} {
		w := buildLifecycleWorkload()
		m := newMachine(9)
		inj := New(Config{
			Seed:                  11,
			DelayPMI:              true,
			DelayBoundaries:       400,
			SignalDelayBoundaries: 40,
			CloneEvery:            31,
			CloneEntry:            w.stub,
			CloneBudget:           40,
		})
		inj.SetRegions(w.regions)
		inj.SetCores(2)
		inj.Attach(m.Kern)
		proc := m.Kern.NewProcess(w.prog, w.space)
		for i := 0; i < 4; i++ {
			m.Kern.Spawn(proc, "big", i%2, uint64(20+i))
		}
		m.Run(machine.RunLimits{MaxSteps: cut})
		m.Release()
		if n := len(m.Kern.Threads()); n <= 2 {
			t.Fatalf("cut %d: the storm ran only %d threads", cut, n)
		}
		if !slices.ContainsFunc(inj.stash, func(s pmiStash) bool { return s.mask != 0 }) &&
			!slices.ContainsFunc(inj.sigHold, func(left int) bool { return left != 0 }) {
			t.Fatalf("cut %d: the storm left no withheld overflow bit and no open hold window", cut)
		}

		inj.Reset(small)
		if got := runSmall(inj); got != want {
			t.Errorf("cut %d: reset injector diverged from a fresh one:\n got %+v\nwant %+v", cut, got, want)
		}
	}
}
