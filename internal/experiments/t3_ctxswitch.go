package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
)

// T3Row is one configuration's context-switch cost.
type T3Row struct {
	Config          string
	Counters        int
	HWVirtualized   bool
	PerfStyle       bool
	CyclesPerSwitch float64
	NsPerSwitch     float64
	DeltaVsNone     float64 // extra cycles attributable to counter virtualization
}

// T3Result reproduces Table 3: counter virtualization cost on the
// context-switch path. Two yield-ping-pong threads on one core force a
// context switch per yield; the delta against the counter-less run
// isolates the per-switch counter save/restore cost.
type T3Result struct {
	Rows []T3Row
}

// buildYieldPong builds a program whose single body yields `rounds`
// times, after opening nCounters counters of the requested style.
func buildYieldPong(nCounters int, perfStyle bool, rounds int) (*isa.Program, *mem.Space) {
	space := mem.NewSpace()
	b := isa.NewBuilder()
	var e *limit.Emitter
	if nCounters > 0 && !perfStyle {
		table := limit.AllocTable(space, nCounters)
		e = limit.NewEmitter(b, limit.ModeStock, table)
		for i := 0; i < nCounters; i++ {
			ev := pmu.Event(i % int(pmu.NumEvents))
			e.AddCounter(limit.UserCounter(ev))
		}
		e.EmitInit()
	}
	if nCounters > 0 && perfStyle {
		for i := 0; i < nCounters; i++ {
			b.MovImm(isa.R0, int64(i%int(pmu.NumEvents)))
			b.MovImm(isa.R1, int64(kernel.FlagUser))
			b.Syscall(kernel.SysPerfOpen)
		}
	}
	b.MovImm(isa.R8, 0)
	b.Label("loop")
	b.Syscall(kernel.SysYield)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, int64(rounds))
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	if e != nil {
		e.EmitFinish()
	}
	return b.MustBuild(), space
}

func measureSwitch(nCounters int, perfStyle, hwVirt bool, rounds int) (float64, error) {
	feats := pmu.DefaultFeatures()
	if hwVirt {
		feats = pmu.EnhancedHWVirtualization()
	}
	prog, space := buildYieldPong(nCounters, perfStyle, rounds)
	m := machine.New(machine.Config{NumCores: 1, PMU: feats})
	defer m.Release()
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "ping", 0, 21)
	m.Kern.Spawn(proc, "pong", 0, 22)
	res := m.Run(machine.RunLimits{MaxSteps: runSteps})
	if res.Err != nil {
		return 0, fmt.Errorf("table3 %d-counter run (perf=%v hwvirt=%v): %w",
			nCounters, perfStyle, hwVirt, res.Err)
	}
	switches := m.Kern.Stats.CtxSwitches
	if switches == 0 {
		return 0, nil
	}
	return float64(res.Cycles) / float64(switches), nil
}

// RunTable3 measures context-switch cost under each counter regime.
func RunTable3(s Scale) (*T3Result, error) {
	rounds := s.iters(3_000)
	type spec struct {
		name     string
		counters int
		perf     bool
		hwVirt   bool
	}
	specs := []spec{
		{"no counters", 0, false, false},
		{"2 LiMiT counters", 2, false, false},
		{"4 LiMiT counters", 4, false, false},
		{"4 perf counters", 4, true, false},
		{"4 LiMiT + hw-virt (e3)", 4, false, true},
	}
	r := &T3Result{}
	base := 0.0
	for i, sp := range specs {
		c, err := measureSwitch(sp.counters, sp.perf, sp.hwVirt, rounds)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = c
		}
		r.Rows = append(r.Rows, T3Row{
			Config:          sp.name,
			Counters:        sp.counters,
			HWVirtualized:   sp.hwVirt,
			PerfStyle:       sp.perf,
			CyclesPerSwitch: c,
			NsPerSwitch:     c * NsPerCycle,
			DeltaVsNone:     c - base,
		})
	}
	return r, nil
}

// Row returns the named configuration's row.
func (r *T3Result) Row(name string) (T3Row, bool) {
	for _, row := range r.Rows {
		if row.Config == name {
			return row, true
		}
	}
	return T3Row{}, false
}

// Render writes the table.
func (r *T3Result) Render(w io.Writer) {
	t := tabwrite.New("Table 3: context-switch cost under counter virtualization",
		"config", "cycles/switch", "ns/switch", "delta vs none")
	for _, row := range r.Rows {
		t.Row(row.Config, row.CyclesPerSwitch, row.NsPerSwitch, fmt.Sprintf("%+.0f", row.DeltaVsNone))
	}
	t.Render(w)
}
