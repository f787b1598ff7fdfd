package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/invariant"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
	"limitsim/internal/tls"
	"limitsim/internal/workloads"
)

// M2 — event-group multiplexing error against exact LiMiT reads. The
// application models open the full derived-metric event set (16 events)
// as multiplexed groups on a 6-counter PMU while their LiMiT counters
// keep counting the same quantities exactly. Sweeping the rotation
// quantum and the group width quantifies the estimation error the
// paper's "more counters, read exactly" position eliminates:
//
//   - exact-err compares the groups' scaled estimates of cycles (and
//     user+kernel cycles; instructions for churn) against the exact
//     LiMiT virtualized counters measuring the same windows — the
//     measurable gap a real system would see.
//   - truth-err compares every estimate against the simulator's
//     omniscient per-event ground truth — including events (TLB walks,
//     context switches) no spare counter was left to measure exactly.
//   - The invariant oracle audits group accounting and the frame
//     stream on every cell; violations must be zero.
type M2Row struct {
	App      string
	Rotation uint64 // mux quantum in scheduled cycles
	Width    int    // events per group

	Groups    int     // groups opened across all threads
	Rotations uint64  // mux rotations fired
	Frames    int     // frames emitted
	LoadedPct float64 // mean running/enabled across groups

	ExactErrPct     float64 // mean |estimate-exact|/exact vs LiMiT reads
	MeanTruthErrPct float64 // mean |estimate-truth|/truth, all events
	MaxTruthErrPct  float64

	Violations int
}

// M2Result is the full sweep.
type M2Result struct {
	Rows []M2Row
}

// m2Ref pairs a frame/sample name with the LiMiT counter index
// measuring the same quantity exactly.
type m2Ref struct {
	sample string
	ctr    int
}

// m2Cell describes one grid point.
type m2Cell struct {
	app      string
	rotation uint64
	width    int
}

// RunM2 sweeps application x rotation quantum x group width.
func RunM2(s Scale) (*M2Result, error) {
	apps := []string{"mysql", "apache", "firefox", "churn"}
	rotations := []uint64{20_000, 80_000, 320_000}
	widths := []int{2, 4}

	var cells []m2Cell
	for _, a := range apps {
		for _, rot := range rotations {
			for _, w := range widths {
				cells = append(cells, m2Cell{a, rot, w})
			}
		}
	}

	rows, err := runPar(len(cells), func(ci int) (M2Row, error) {
		return runM2Cell(cells[ci], s)
	})
	if err != nil {
		return nil, err
	}
	return &M2Result{Rows: rows}, nil
}

// m2Machine is the cell machine config: 6 programmable counters so the
// two pinned LiMiT counters leave 4 slots for group rotation.
func m2Machine(cores int, rotation uint64) machine.Config {
	f := pmu.DefaultFeatures()
	f.NumCounters = 6
	kcfg := kernel.DefaultConfig()
	kcfg.MuxQuantum = rotation
	return machine.Config{NumCores: cores, PMU: f, Kernel: kcfg}
}

func runM2Cell(c m2Cell, s Scale) (M2Row, error) {
	groups := workloads.DefaultMuxGroups(c.width)
	refs := []m2Ref{{"cycles", 0}, {"cycles:uk", 1}}

	var m *machine.Machine
	switch c.app {
	case "churn":
		// Churn managers count (instructions, user cycles) exactly.
		refs = []m2Ref{{"instructions", 0}, {"cycles", 1}}
		w := workloads.BuildChurn(workloads.ChurnConfig{
			Pool:      3,
			Waves:     s.count(6),
			Iters:     s.iters(40),
			MuxGroups: groups,
		})
		m = machine.New(m2Machine(2, c.rotation))
		defer m.Release()
		proc := m.Kern.NewProcess(w.Prog, w.Space)
		for mt := 0; mt < len(w.Entries); mt++ {
			mgr := m.Kern.Spawn(proc, "churn-mgr", w.Entries[mt], 7+uint64(mt))
			mgr.SetReg(tls.SlotReg, uint64(w.ManagerSlot(mt)))
		}
		res := m.Run(machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil || !res.AllDone {
			return M2Row{}, fmt.Errorf("m2 churn: %+v", res)
		}
	default:
		ins := workloads.LimitInstr()
		ins.MuxGroups = groups
		var app *workloads.App
		switch c.app {
		case "mysql":
			app = workloads.BuildMySQL(scaleMySQL(workloads.DefaultMySQL(), s), ins)
		case "apache":
			acfg := workloads.DefaultApache()
			acfg.RequestsPerWorker = s.iters(acfg.RequestsPerWorker)
			app = workloads.BuildApache(acfg, ins)
		case "firefox":
			fcfg := workloads.DefaultFirefox()
			fcfg.EventsPerThread = s.iters(fcfg.EventsPerThread)
			app = workloads.BuildFirefox(fcfg, ins)
		}
		var res machine.RunResult
		m, res, _ = app.Run(m2Machine(4, c.rotation), machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil || !res.AllDone {
			return M2Row{}, fmt.Errorf("m2 %s: %+v", c.app, res)
		}
	}

	row := M2Row{App: c.app, Rotation: c.rotation, Width: c.width}
	row.Rotations = m.Kern.Stats.MuxRotations
	row.Frames = len(m.Kern.Frames())

	var loadedSum float64
	var loadedN int
	var truthErrSum float64
	var truthErrN int
	exactErr := make([]float64, len(refs))
	exactN := make([]int, len(refs))
	for _, t := range m.Kern.Threads() {
		gs := t.Groups()
		if len(gs) == 0 {
			continue
		}
		row.Groups += len(gs)
		for _, g := range gs {
			if g.EnabledCycles > 0 {
				loadedSum += float64(g.RunningCycles) / float64(g.EnabledCycles)
				loadedN++
			}
			for i := range g.Events {
				if g.True[i] == 0 {
					continue
				}
				e := relErr(g.Estimate(i), g.True[i])
				truthErrSum += e
				truthErrN++
				if p := 100 * e; p > row.MaxTruthErrPct {
					row.MaxTruthErrPct = p
				}
			}
		}
		for ri, ref := range refs {
			est, ok := threadSampleEstimate(t, ref.sample)
			if !ok {
				continue
			}
			exact, estimated, err := limit.ThreadValue(t, ref.ctr)
			if err != nil || estimated || exact == 0 {
				continue // degraded or counterless thread: no exact reference
			}
			exactErr[ri] += relErr(est, exact)
			exactN[ri]++
		}
	}
	if loadedN > 0 {
		row.LoadedPct = 100 * loadedSum / float64(loadedN)
	}
	if truthErrN > 0 {
		row.MeanTruthErrPct = 100 * truthErrSum / float64(truthErrN)
	}
	var errSum float64
	var errN int
	for ri := range refs {
		if exactN[ri] > 0 {
			errSum += exactErr[ri] / float64(exactN[ri])
			errN++
		}
	}
	if errN > 0 {
		row.ExactErrPct = 100 * errSum / float64(errN)
	}

	chk := invariant.New(nil)
	chk.CheckGroups(m.Kern)
	row.Violations = chk.Count()
	return row, nil
}

// threadSampleEstimate finds the thread's scaled estimate for the
// named sample (first matching group event wins).
func threadSampleEstimate(t *kernel.Thread, name string) (uint64, bool) {
	for _, g := range t.Groups() {
		for i, ge := range g.Events {
			if metrics.SampleName(ge) == name {
				return g.Estimate(i), true
			}
		}
	}
	return 0, false
}

func relErr(est, truth uint64) float64 {
	var d uint64
	if est > truth {
		d = est - truth
	} else {
		d = truth - est
	}
	return float64(d) / float64(truth)
}

// Clean reports whether every cell held the group invariants.
func (r *M2Result) Clean() bool {
	for _, row := range r.Rows {
		if row.Violations != 0 {
			return false
		}
	}
	return true
}

// Render writes the sweep table.
func (r *M2Result) Render(w io.Writer) {
	t := tabwrite.New(
		"M2: multiplexed-estimate error vs exact LiMiT reads — rotation quantum x group width",
		"app", "rotation", "width", "groups", "rotations", "frames",
		"loaded %", "exact-err %", "truth-err %", "max-truth-err %", "violations")
	for _, row := range r.Rows {
		t.Row(row.App, row.Rotation, row.Width, row.Groups, row.Rotations,
			row.Frames, fmt.Sprintf("%.1f", row.LoadedPct),
			fmt.Sprintf("%.3f", row.ExactErrPct),
			fmt.Sprintf("%.3f", row.MeanTruthErrPct),
			fmt.Sprintf("%.3f", row.MaxTruthErrPct),
			row.Violations)
	}
	t.Render(w)
}
