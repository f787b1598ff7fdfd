package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/isa"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
	"limitsim/internal/usync"
)

// ReadVariant names one read-sequence construction in the cost
// breakdown.
type ReadVariant string

// Read variants.
const (
	// VariantRaw is a bare rdpmc with no virtualization correction
	// (what a naive userspace reader gets: fast but wrong after any
	// overflow fold).
	VariantRaw ReadVariant = "rdpmc-raw"
	// VariantStock is LiMiT's full read: rdpmc + virtual-counter add
	// inside a fixup region.
	VariantStock ReadVariant = "limit-stock"
	// VariantLocked protects the read sequence with a userspace
	// spinlock instead of the kernel fixup — the alternative design
	// the fixup makes unnecessary.
	VariantLocked ReadVariant = "limit-lock-based"
	// VariantE1 is a bare read on 64-bit writable counters
	// (enhancement e1: no virtual counter, no fixup).
	VariantE1 ReadVariant = "64bit-hw (e1)"
	// VariantE2 is a destructive interval read (enhancement e2: one
	// instruction per region measurement).
	VariantE2 ReadVariant = "destructive-hw (e2)"
)

// T2Row is one variant's measured cost.
type T2Row struct {
	Variant    ReadVariant
	CyclesRead float64
	NsRead     float64
	SeqInstrs  int // static instructions in the read sequence
}

// T2Result reproduces Table 2: LiMiT read-cost breakdown and the
// design alternatives.
type T2Result struct {
	Rows []T2Row
}

// measureVariant builds a single-thread loop performing iters reads of
// a cycles counter with the given construction, and returns the
// per-read cost (against an empty-loop baseline) plus the sequence's
// static instruction count.
func measureVariant(v ReadVariant, iters int) (float64, int, error) {
	feats := pmu.DefaultFeatures()
	mode := limit.ModeStock
	switch v {
	case VariantRaw:
		mode = limit.Mode64Bit // bare rdpmc sequence on stock hardware
	case VariantE1:
		feats = pmu.Enhanced64Bit()
		mode = limit.Mode64Bit
	case VariantE2:
		feats = pmu.EnhancedDestructive()
		mode = limit.ModeDestructive
	}

	build := func(withRead bool) (prog *isa.Program, space *mem.Space) {
		space = mem.NewSpace()
		b := isa.NewBuilder()
		table := limit.AllocTable(space, 1)
		e := limit.NewEmitter(b, mode, table)
		ctr := e.AddCounter(limit.UserCounter(pmu.EvCycles))
		var lock usync.SpinMutex
		if v == VariantLocked {
			lock = usync.NewSpinMutex(space)
		}
		e.EmitInit()
		b.MovImm(isa.R8, 0)
		b.Label("loop")
		if withRead {
			switch v {
			case VariantLocked:
				lock.EmitLock(b)
				e.EmitRead(isa.R4, isa.R5, ctr)
				lock.EmitUnlock(b)
			case VariantE2:
				e.EmitIntervalRead(isa.R4, ctr)
			default:
				e.EmitRead(isa.R4, isa.R5, ctr)
			}
		}
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, int64(iters))
		b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
		b.Halt()
		e.EmitFinish()
		return b.MustBuild(), space
	}

	seqLen := func() int {
		prog, _ := build(true)
		base, _ := build(false)
		return prog.Len() - base.Len()
	}()

	run := func(withRead bool) (uint64, error) {
		prog, space := build(withRead)
		m := machine.New(machine.Config{NumCores: 1, PMU: feats})
		defer m.Release()
		proc := m.Kern.NewProcess(prog, space)
		m.Kern.Spawn(proc, "t2", 0, 9)
		res := m.Run(machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil {
			return 0, fmt.Errorf("table2 %s run: %w", v, res.Err)
		}
		return res.Cycles, nil
	}

	with, err := run(true)
	if err != nil {
		return 0, 0, err
	}
	without, err := run(false)
	if err != nil {
		return 0, 0, err
	}
	if with <= without {
		return 0, seqLen, nil
	}
	return float64(with-without) / float64(iters), seqLen, nil
}

// RunTable2 measures every read variant.
func RunTable2(s Scale) (*T2Result, error) {
	iters := s.iters(20_000)
	r := &T2Result{}
	for _, v := range []ReadVariant{VariantRaw, VariantStock, VariantLocked, VariantE1, VariantE2} {
		c, n, err := measureVariant(v, iters)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, T2Row{Variant: v, CyclesRead: c, NsRead: c * NsPerCycle, SeqInstrs: n})
	}
	return r, nil
}

// Row returns the named variant's row.
func (r *T2Result) Row(v ReadVariant) (T2Row, bool) {
	for _, row := range r.Rows {
		if row.Variant == v {
			return row, true
		}
	}
	return T2Row{}, false
}

// Render writes the table.
func (r *T2Result) Render(w io.Writer) {
	t := tabwrite.New("Table 2: LiMiT read-sequence cost breakdown",
		"variant", "cycles/read", "ns/read", "seq instrs")
	for _, row := range r.Rows {
		t.Row(string(row.Variant), row.CyclesRead, row.NsRead, row.SeqInstrs)
	}
	t.Render(w)
}
