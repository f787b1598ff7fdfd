package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/analysis"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
	"limitsim/internal/workloads"
)

// ---------------------------------------------------------------------------
// A1: overflow folding mechanism — kernel fold vs userspace signal handler.
// ---------------------------------------------------------------------------

// A1Row is one overflow-handling configuration's measured cost.
type A1Row struct {
	Mode       string
	WriteWidth int
	Folds      uint64
	Signals    uint64
	RunCycles  uint64
	// CyclesPerFold is the marginal cost of one fold versus the
	// rare-overflow baseline run.
	CyclesPerFold float64
}

// A1Result is the overflow-mechanism ablation: with frequent overflows
// (narrow counter writes), folding in the kernel's PMI handler is
// cheaper than bouncing through a userspace signal — the reason LiMiT
// folds in the kernel. At the real 31-bit width either is negligible.
type A1Result struct {
	Rows []A1Row
}

// a1run executes a fixed compute+read loop under one configuration.
func a1run(mode kernel.OverflowMode, writeWidth, iters int) (cycles, folds, signals uint64, err error) {
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = writeWidth
	kcfg := kernel.DefaultConfig()
	kcfg.LimitOverflow = mode

	space := mem.NewSpace()
	table := limit.AllocTable(space, 1)
	b := isa.NewBuilder()
	e := limit.NewEmitter(b, limit.ModeStock, table)
	ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
	if mode == kernel.SignalUser {
		e.EnableOverflowSignalHandler()
	}
	e.EmitInit()
	b.MovImm(isa.R8, 0)
	b.Label("loop")
	b.Compute(200)
	e.EmitRead(isa.R4, isa.R5, ctr)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, int64(iters))
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	e.EmitFinish()

	m := machine.New(machine.Config{NumCores: 1, PMU: feats, Kernel: kcfg})
	defer m.Release()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "a1", 0, 3)
	res := m.Run(machine.RunLimits{MaxSteps: runSteps})
	if res.Err != nil {
		return 0, 0, 0, fmt.Errorf("a1 %v width-%d run: %w", mode, writeWidth, res.Err)
	}
	return res.Cycles, m.Kern.Stats.OverflowFolds, m.Kern.Stats.SignalsSent, nil
}

// RunAblationOverflow measures both folding mechanisms at the stock
// write width (rare folds) and a narrow one (frequent folds).
func RunAblationOverflow(s Scale) (*A1Result, error) {
	iters := s.iters(5_000)
	r := &A1Result{}
	specs := []struct {
		mode  kernel.OverflowMode
		name  string
		width int
	}{
		{kernel.FoldInKernel, "kernel-fold", 31},
		{kernel.FoldInKernel, "kernel-fold", 12},
		{kernel.SignalUser, "signal-user", 31},
		{kernel.SignalUser, "signal-user", 12},
	}
	rows, err := runPar(len(specs), func(i int) (A1Row, error) {
		spec := specs[i]
		cycles, folds, signals, err := a1run(spec.mode, spec.width, iters)
		if err != nil {
			return A1Row{}, err
		}
		return A1Row{
			Mode: spec.name, WriteWidth: spec.width,
			Folds: folds, Signals: signals, RunCycles: cycles,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = rows
	// Marginal fold cost: frequent-fold run vs the same mode's
	// rare-fold baseline.
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.WriteWidth == 31 {
			continue
		}
		for _, base := range r.Rows {
			if base.Mode == row.Mode && base.WriteWidth == 31 && row.Folds > base.Folds {
				row.CyclesPerFold = float64(row.RunCycles-base.RunCycles) / float64(row.Folds-base.Folds)
			}
		}
	}
	return r, nil
}

// Row returns the (mode, width) row.
func (r *A1Result) Row(mode string, width int) (A1Row, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode && row.WriteWidth == width {
			return row, true
		}
	}
	return A1Row{}, false
}

// Render writes the ablation table.
func (r *A1Result) Render(w io.Writer) {
	t := tabwrite.New("Ablation A1: overflow folding mechanism",
		"mode", "write width", "folds", "signals", "run Mcycles", "cycles/fold")
	for _, row := range r.Rows {
		t.Row(row.Mode, row.WriteWidth, row.Folds, row.Signals,
			float64(row.RunCycles)/1e6, row.CyclesPerFold)
	}
	t.Render(w)
}

// ---------------------------------------------------------------------------
// A2: scheduler quantum vs fixup-rewind frequency.
// ---------------------------------------------------------------------------

// A2Row is one quantum's measured rewind behavior.
type A2Row struct {
	Quantum         uint64
	Reads           uint64
	Rewinds         uint64
	RewindsPerKRead float64
	Torn            uint64
}

// A2Result shows that the PC-rewind rate tracks preemption frequency
// while correctness is independent of it: even at absurdly small
// quanta, no measurement tears.
type A2Result struct {
	Rows []A2Row
}

// RunAblationQuantum sweeps the scheduler quantum with two contending
// threads measuring fixed regions.
func RunAblationQuantum(s Scale) (*A2Result, error) {
	iters := s.iters(800)
	const regionInstrs = 400
	quanta := []uint64{500, 2_000, 20_000, 300_000}
	rows, err := runPar(len(quanta), func(qi int) (A2Row, error) {
		quantum := quanta[qi]
		kcfg := kernel.DefaultConfig()
		kcfg.Quantum = quantum

		space := mem.NewSpace()
		table := limit.AllocTable(space, 2)
		buf := space.AllocWords(uint64(iters))
		b := isa.NewBuilder()
		e := limit.NewEmitter(b, limit.ModeStock, table)
		ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
		e.EmitInit()
		b.MovImm(isa.R8, 0)
		b.MovImm(isa.R10, int64(buf))
		b.Label("loop")
		e.EmitMeasureStart(isa.R4, isa.R5, ctr)
		b.Compute(regionInstrs)
		e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
		// Only thread with slot reg 0 records (one results buffer).
		skip := "skip"
		b.MovImm(isa.R9, 0)
		b.Br(isa.CondNE, isa.R14, isa.R9, skip)
		b.Store(isa.R10, 0, isa.R6)
		b.AddImm(isa.R10, isa.R10, 8)
		b.Label(skip)
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, int64(iters))
		b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
		b.Halt()
		e.EmitFinish()

		m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})
		defer m.Release()
		proc := m.Kern.NewProcess(b.MustBuild(), space)
		t0 := m.Kern.Spawn(proc, "meas", 0, 5)
		t0.SetReg(isa.R14, 0)
		t1 := m.Kern.Spawn(proc, "rival", 0, 6)
		t1.SetReg(isa.R14, 1)
		if res := m.Run(machine.RunLimits{MaxSteps: runSteps}); res.Err != nil {
			return A2Row{}, fmt.Errorf("a2 quantum-%d run: %w", quantum, res.Err)
		}

		// Each thread performs two reads per iteration (start + end).
		row := A2Row{Quantum: quantum, Reads: uint64(iters) * 4}
		row.Rewinds = t0.Stats.FixupRewinds + t1.Stats.FixupRewinds
		row.RewindsPerKRead = float64(row.Rewinds) / float64(row.Reads) * 1000
		want := uint64(regionInstrs + 4)
		for _, v := range space.ReadWords(buf, iters) {
			if v < want || v > want+128 {
				row.Torn++
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &A2Result{Rows: rows}, nil
}

// Render writes the quantum ablation.
func (r *A2Result) Render(w io.Writer) {
	t := tabwrite.New("Ablation A2: scheduler quantum vs PC-rewind rate",
		"quantum (cycles)", "rewinds", "rewinds/kread", "torn measurements")
	for _, row := range r.Rows {
		t.Row(row.Quantum, row.Rewinds, row.RewindsPerKRead, row.Torn)
	}
	t.Render(w)
}

// ---------------------------------------------------------------------------
// A3: lock spin budget (usync design knob under the case studies).
// ---------------------------------------------------------------------------

// A3Row is one spin budget's effect on the MySQL model.
type A3Row struct {
	Spins       int
	MeanAcquire float64
	CtxSwitches uint64
	RunMcycles  float64
}

// A3Result sweeps the mutex spin-then-park threshold: too little
// spinning converts short waits into parking (kernel switches); the
// measured acquisition latencies shift accordingly.
type A3Result struct {
	Rows []A3Row
}

// RunAblationSpins sweeps the spin budget on the MySQL model.
func RunAblationSpins(s Scale) (*A3Result, error) {
	budgets := []int{0, 10, 40, 200, 1000}
	rows, err := runPar(len(budgets), func(i int) (A3Row, error) {
		spins := budgets[i]
		cfg := scaleMySQL(workloads.DefaultMySQL(), s)
		cfg.Spins = spins
		app := workloads.BuildMySQL(cfg, workloads.LimitInstr())
		m, res, _ := app.Run(machine.Config{NumCores: 4}, machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil {
			return A3Row{}, fmt.Errorf("a3 spins-%d run: %w", spins, res.Err)
		}
		p := analysis.CollectSync(app)
		return A3Row{
			Spins:       spins,
			MeanAcquire: p.Acq.Mean(),
			CtxSwitches: m.Kern.Stats.CtxSwitches,
			RunMcycles:  float64(res.Cycles) / 1e6,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &A3Result{Rows: rows}, nil
}

// Render writes the spin ablation.
func (r *A3Result) Render(w io.Writer) {
	t := tabwrite.New("Ablation A3: mutex spin budget (MySQL model)",
		"spins", "mean acquire (cyc)", "ctx switches", "run Mcycles")
	for _, row := range r.Rows {
		t.Row(row.Spins, row.MeanAcquire, row.CtxSwitches, row.RunMcycles)
	}
	t.Render(w)
}

// ---------------------------------------------------------------------------
// A4: scheduler placement policy (migration / work stealing).
// ---------------------------------------------------------------------------

// A4Row is one scheduler policy's behavior on the MySQL model.
type A4Row struct {
	Policy     string
	Migrations uint64
	Steals     uint64
	RunMcycles float64
}

// A4Result toggles wake-time migration and work stealing; counter
// virtualization keeps measurements exact under every policy (the
// LiMiT property the paper relies on for multicore studies).
type A4Result struct {
	Rows []A4Row
}

// RunAblationScheduler sweeps placement policies.
func RunAblationScheduler(s Scale) (*A4Result, error) {
	specs := []struct {
		name           string
		migrate, steal bool
	}{
		{"affinity, no stealing", false, false},
		{"affinity + stealing", false, true},
		{"migrate-on-wake", true, false},
		{"migrate + stealing", true, true},
	}
	rows, err := runPar(len(specs), func(i int) (A4Row, error) {
		spec := specs[i]
		kcfg := kernel.DefaultConfig()
		kcfg.MigrateOnWake = spec.migrate
		kcfg.WorkStealing = spec.steal
		cfg := scaleMySQL(workloads.DefaultMySQL(), s)
		app := workloads.BuildMySQL(cfg, workloads.LimitInstr())
		m, res, _ := app.Run(machine.Config{NumCores: 4, Kernel: kcfg}, machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil {
			return A4Row{}, fmt.Errorf("a4 %s run: %w", spec.name, res.Err)
		}
		return A4Row{
			Policy:     spec.name,
			Migrations: m.Kern.Stats.Migrations,
			Steals:     m.Kern.Stats.Steals,
			RunMcycles: float64(res.Cycles) / 1e6,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &A4Result{Rows: rows}, nil
}

// Render writes the scheduler ablation.
func (r *A4Result) Render(w io.Writer) {
	t := tabwrite.New("Ablation A4: scheduler placement policy (MySQL model)",
		"policy", "migrations", "steals", "run Mcycles")
	for _, row := range r.Rows {
		t.Row(row.Policy, row.Migrations, row.Steals, row.RunMcycles)
	}
	t.Render(w)
}
