package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"limitsim/internal/chaos"
	"limitsim/internal/experiments"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/tls"
	"limitsim/internal/workloads"
)

// unitFunc runs unit i of the measured work, adding its simulated
// counts to c and its layer spans to sp (nil when untraced).
type unitFunc func(i int, c counts, sp *spans) error

// workload is one named benchmark workload.
type workload struct {
	name string
	// perRound is how many units make one round; the measured work is
	// whole rounds, so each run has the same mix of units.
	perRound int
	// roundCost is the CPU seconds one round took on the 2-core host
	// the benchmark was written on; it turns --seconds into a fixed
	// round count, so a faster commit measures the same work in less
	// time.
	roundCost float64
	// setup builds the inputs for o.seed, warms them up and returns the
	// measured unit. It is timed as setup_s.
	setup func(o options, sp *spans) (unitFunc, error)
	// goldens are the artifacts this workload's code reproduces.
	goldens []golden
}

var allWorkloads = []*workload{
	{name: "apps", perRound: 1, roundCost: 0.085, setup: setupApps, goldens: []golden{framesGolden}},
	{name: "chaos", perRound: 3, roundCost: 0.14, setup: setupChaos, goldens: []golden{campaignGolden, tenantGolden}},
	{name: "suite", perRound: len(suiteSections), roundCost: 0.34, setup: setupSuite, goldens: []golden{experimentsGolden}},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer; mixKey folds a unit index
// into the benchmark seed with it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mixKey(seed uint64, i int) uint64 { return splitmix64(seed ^ splitmix64(uint64(i))) }

// scaleN scales a workload size knob, keeping it at least 1.
func scaleN(n int, size float64) int {
	if v := int(float64(n) * size); v > 1 {
		return v
	}
	return 1
}

// simApp is one pre-built application of the apps workload.
type simApp struct {
	space  *mem.Space
	snap   *mem.Snapshot
	launch func(m *machine.Machine, key uint64)
}

// launchApp starts app's threads with seeds derived from key.
func launchApp(app *workloads.App) func(*machine.Machine, uint64) {
	return func(m *machine.Machine, key uint64) {
		for j := range app.Plans {
			app.Plans[j].Seed = splitmix64(key + uint64(j))
		}
		app.Launch(m)
	}
}

// setupApps builds mysql, apache, forkjoin and churn, snapshots their
// memory images and warms up one round. A unit restores each snapshot
// and runs it to completion on a fresh 4-core machine with kernel and
// thread seeds drawn from the benchmark seed and the unit index.
func setupApps(o options, sp *spans) (unitFunc, error) {
	t0 := sp.start()
	mysqlCfg := workloads.DefaultMySQL()
	mysqlCfg.TxnsPerWorker = scaleN(mysqlCfg.TxnsPerWorker, o.size)
	apacheCfg := workloads.DefaultApache()
	apacheCfg.RequestsPerWorker = scaleN(apacheCfg.RequestsPerWorker, o.size)
	fjCfg := workloads.DefaultForkJoin()
	fjCfg.Iterations = scaleN(fjCfg.Iterations, o.size)
	mysql := workloads.BuildMySQL(mysqlCfg, workloads.LimitInstr())
	apache := workloads.BuildApache(apacheCfg, workloads.LimitInstr())
	fj := workloads.BuildForkJoin(fjCfg, workloads.LimitInstr())
	churn := workloads.BuildChurn(workloads.ChurnConfig{Waves: scaleN(6, o.size)})
	sp.end("workloads.build_s", t0)

	apps := []*simApp{
		{space: mysql.Space, launch: launchApp(mysql)},
		{space: apache.Space, launch: launchApp(apache)},
		{space: fj.Space, launch: launchApp(fj)},
		{space: churn.Space, launch: func(m *machine.Machine, key uint64) {
			proc := m.Kern.NewProcess(churn.Prog, churn.Space)
			mgr := m.Kern.Spawn(proc, "churn-mgr", churn.Entries[0], splitmix64(key))
			mgr.SetReg(tls.SlotReg, uint64(churn.ManagerSlot(0)))
		}},
	}
	t0 = sp.start()
	for _, a := range apps {
		a.snap = a.space.Snapshot()
	}
	sp.end("mem.snapshot_s", t0)

	unit := func(i int, c counts, sp *spans) error {
		for ai, a := range apps {
			key := mixKey(o.seed, i*len(apps)+ai)
			t0 := sp.start()
			a.space.Restore(a.snap)
			sp.end("mem.restore_s", t0)

			t0 = sp.start()
			kcfg := kernel.DefaultConfig()
			kcfg.Seed = key
			m := machine.New(machine.Config{NumCores: 4, Kernel: kcfg})
			a.launch(m, key)
			sp.end("machine.new_s", t0)

			t0 = sp.start()
			res := m.Run(machine.RunLimits{MaxSteps: 1 << 32})
			sp.end("machine.run_s", t0)
			if res.Err != nil {
				return fmt.Errorf("app %d: %w", ai, res.Err)
			}
			if !res.AllDone {
				return fmt.Errorf("app %d: threads still live after %d steps", ai, res.Steps)
			}
			c["machine.sim_cycles"] += res.Cycles
			c["machine.steps"] += res.Steps
			c["pmu.instructions"] += m.TotalGroundTruth(pmu.EvInstructions)
			c["cache.l1d_misses"] += m.TotalGroundTruth(pmu.EvL1DMiss)
			c["cache.llc_misses"] += m.TotalGroundTruth(pmu.EvLLCMiss)
			c["tlb.dtlb_misses"] += m.TotalGroundTruth(pmu.EvDTLBMiss)
			c["branch.mispredicts"] += m.TotalGroundTruth(pmu.EvBranchMiss)
			c["kernel.ctx_switches"] += m.Kern.Stats.CtxSwitches
			c["kernel.migrations"] += m.Kern.Stats.Migrations
			c["kernel.folds"] += m.Kern.Stats.OverflowFolds
			for _, t := range m.Kern.Threads() {
				c["kernel.rewinds"] += t.Stats.FixupRewinds
			}
		}
		return nil
	}
	if err := unit(-1, counts{}, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return unit, nil
}

// shuffle permutes xs in place with a Fisher-Yates walk driven by key.
func shuffle[T any](xs []T, key uint64) []T {
	for i := len(xs) - 1; i > 0; i-- {
		key = splitmix64(key)
		j := int(key % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// setupChaos returns units that each run one single-seed chaos
// campaign over a permuted mix list. A round is two default-matrix
// campaigns and one tenant campaign (4 guests), so the median unit is
// a default campaign and the tail a tenant one. Set-up warms up one
// campaign of each kind; chaos.Run builds its own workload per call.
func setupChaos(o options, sp *spans) (unitFunc, error) {
	iters := scaleN(100, o.size)
	campaign := func(tenant bool, key uint64, c counts, sp *spans) error {
		cfg := chaos.Config{Seeds: 1, Iters: iters, Parallel: 1, Mixes: chaos.DefaultMixes()}
		if tenant {
			cfg.Tenants, cfg.Mixes = 4, chaos.TenantMixes()
		}
		// A mix's position sets its campaign seed (chaos.RunSeed), so
		// the permutation is how the benchmark seed reaches the faults.
		cfg.Mixes = shuffle(cfg.Mixes, key)
		t0 := sp.start()
		res := chaos.Run(cfg)
		sp.end("chaos.run_s", t0)
		for _, mr := range res.Mixes {
			c["kernel.ctx_switches"] += mr.CtxSwitches
			c["kernel.migrations"] += mr.Migrations
			c["kernel.rewinds"] += mr.Rewinds
			c["kernel.folds"] += mr.Folds
			c["faultinject.injected"] += mr.Injected.Total()
			c["invariant.reads_checked"] += mr.ReadsCompleted
			if mr.RunErrors > 0 {
				return fmt.Errorf("mix %s: %s", mr.Name, strings.Join(mr.Errs, "; "))
			}
		}
		if v := res.TotalViolations(); v > 0 {
			return fmt.Errorf("%d invariant violation(s)", v)
		}
		return nil
	}
	for k, tenant := range []bool{false, true} {
		if err := campaign(tenant, mixKey(o.seed, -1-k), counts{}, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return func(i int, c counts, sp *spans) error {
		return campaign(i%3 == 2, mixKey(o.seed, i), c, sp)
	}, nil
}

// renderer is what every experiment result implements.
type renderer interface{ Render(io.Writer) }

type renderFunc func(io.Writer)

func (f renderFunc) Render(w io.Writer) { f(w) }

// section is one entry of the limit-experiments suite: a runner whose
// result renders under one or more titles. span is the ledger key the
// runner's time is charged to.
type section struct {
	span   string
	titles []string
	run    func(experiments.Scale) ([]renderer, error)
}

func sec[R renderer](span, title string, run func(experiments.Scale) (R, error)) section {
	return section{span: span, titles: []string{title}, run: func(s experiments.Scale) ([]renderer, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return []renderer{r}, nil
	}}
}

// suiteSections mirrors cmd/limit-experiments, in its order and with
// its titles, so the suite's output can be compared byte for byte.
var suiteSections = []section{
	sec("rest", "T1 — Access-method cost", experiments.RunTable1),
	sec("rest", "T2 — Read-sequence breakdown", experiments.RunTable2),
	sec("rest", "T3 — Context-switch cost", experiments.RunTable3),
	sec("rest", "S1 — Self-measurement (LiMiT measuring LiMiT)", experiments.RunSelfMeasure),
	sec("rest", "F1 — Measurement self-perturbation", experiments.RunFig1),
	sec("rest", "F2 — Slowdown vs instrumentation density", experiments.RunFig2),
	{span: "rest", titles: []string{
		"F3 — Critical-section length distributions",
		"F4 — Cycle decomposition",
		"F6 — Kernel vs user cycles",
	}, run: func(s experiments.Scale) ([]renderer, error) {
		r, err := experiments.RunCaseStudies(s)
		if err != nil {
			return nil, err
		}
		return []renderer{renderFunc(r.RenderFig3), renderFunc(r.RenderFig4), renderFunc(r.RenderFig6)}, nil
	}},
	sec("rest", "F5 — MySQL longitudinal", experiments.RunFig5),
	sec("rest", "T4 — Sampling vs precise attribution", experiments.RunTable4),
	sec("rest", "T5 — Counter multiplexing estimation error", experiments.RunTable5),
	sec("rest", "F7 — Hardware-counter enhancements", experiments.RunFig7),
	sec("F8", "F8 — Bottleneck identification (multi-event)", experiments.RunFig8),
	sec("rest", "F9 — Consolidation interference", experiments.RunFig9),
	sec("rest", "A1 — Overflow folding mechanism", experiments.RunAblationOverflow),
	sec("rest", "A2 — Quantum vs PC-rewind rate", experiments.RunAblationQuantum),
	sec("A3", "A3 — Mutex spin budget", experiments.RunAblationSpins),
	sec("A4", "A4 — Scheduler placement policy", experiments.RunAblationScheduler),
	sec("M1", "M1 — Multi-tenant attribution under the double context switch", experiments.RunM1),
	sec("M2", "M2 — Multiplexed-estimate error vs exact LiMiT reads", experiments.RunM2),
}

// runSection runs one section at scale s and writes its titled output
// to w exactly as limit-experiments does. A result whose oracles report
// violations is an error, as in the command.
func runSection(sc section, s experiments.Scale, w io.Writer, sp *spans) error {
	t0 := sp.start()
	rs, err := sc.run(s)
	sp.end("experiments."+sc.span+"_s", t0)
	if err != nil {
		return fmt.Errorf("%s: %w", sc.titles[0], err)
	}
	t0 = sp.start()
	for i, r := range rs {
		title := sc.titles[i]
		fmt.Fprintf(w, "%s\n%s\n\n", title, strings.Repeat("#", len(title)))
		r.Render(w)
	}
	sp.end("output.render_s", t0)
	for _, r := range rs {
		if c, ok := r.(interface{ Clean() bool }); ok && !c.Clean() {
			return fmt.Errorf("%s: oracles reported violations", sc.titles[0])
		}
	}
	return nil
}

// suiteOrder is the order round r runs the sections in. The runners
// take no seed, so permuting the order is how the benchmark seed
// reaches this workload.
func suiteOrder(seed uint64, r int) []int {
	order := make([]int, len(suiteSections))
	for i := range order {
		order[i] = i
	}
	return shuffle(order, mixKey(seed, r))
}

// splitSections cuts experiments.txt into the text each section of
// suiteSections writes.
func splitSections(golden []byte) ([][]byte, error) {
	starts := make([]int, len(suiteSections)+1)
	from := 0
	for k, sc := range suiteSections {
		title := sc.titles[0]
		i := bytes.Index(golden[from:], []byte(title+"\n"+strings.Repeat("#", len(title))+"\n\n"))
		if i < 0 || (k == 0 && i != 0) {
			return nil, fmt.Errorf("%s: no section %q in order", experimentsGolden.file, title)
		}
		starts[k], from = from+i, from+i+1
	}
	starts[len(suiteSections)] = len(golden)
	out := make([][]byte, len(suiteSections))
	for k := range out {
		out[k] = golden[starts[k]:starts[k+1]]
	}
	return out, nil
}

// setupSuite returns units that each run and render one section of
// limit-experiments at scale 0.1, the scale experiments.txt pins, and
// compare its text with that section of the golden. Unit i is position
// i mod the section count of round i / count. Set-up splits the golden
// and warms every section up at scale 0.02. The suite ignores o.size:
// its scale is fixed by the golden.
func setupSuite(o options, sp *spans) (unitFunc, error) {
	experiments.SetParallel(1)
	golden, err := os.ReadFile(filepath.Join(o.goldens, experimentsGolden.file))
	if err != nil {
		return nil, err
	}
	want, err := splitSections(golden)
	if err != nil {
		return nil, err
	}
	for _, sc := range suiteSections {
		if err := runSection(sc, 0.02, io.Discard, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return func(i int, c counts, sp *spans) error {
		n := len(suiteSections)
		k := suiteOrder(o.seed, i/n)[i%n]
		var buf bytes.Buffer
		if err := runSection(suiteSections[k], experiments.Quick, &buf, sp); err != nil {
			return err
		}
		c["output.bytes"] += uint64(buf.Len())
		if !bytes.Equal(buf.Bytes(), want[k]) {
			return fmt.Errorf("%s: output differs from its section of %s", suiteSections[k].titles[0], experimentsGolden.file)
		}
		return nil
	}, nil
}

// golden is one artifact under testdata/golden and the public calls
// that reproduce it.
type golden struct {
	file   string
	render func(w io.Writer) error
}

// check reproduces the artifact and compares it with want byte for
// byte.
func (g golden) check(want []byte) error {
	var buf bytes.Buffer
	if err := g.render(&buf); err != nil {
		return err
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("differs from the golden at byte %d (%d bytes, golden %d)", i, len(got), len(want))
}

func readGoldens(dir string, gs []golden) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, g := range gs {
		b, err := os.ReadFile(filepath.Join(dir, g.file))
		if err != nil {
			return nil, fmt.Errorf("reading golden (run from the repository root): %w", err)
		}
		out[g.file] = b
	}
	return out, nil
}

// campaignGolden is `limit-chaos -seeds 4 -iters 150 -metrics`: the
// report and the verdict line, both on standard output.
var campaignGolden = golden{"campaign.txt", func(w io.Writer) error {
	res := chaos.Run(chaos.Config{Seeds: 4, Iters: 150, Metrics: true, Parallel: 1})
	res.Render(w)
	if res.TotalRunErrors() > 0 || res.TotalViolations() > 0 {
		return errors.New("campaign reported failed runs or violations")
	}
	fmt.Fprintln(w, "all invariants held under the full fault mix")
	return nil
}}

// tenantGolden is `limit-chaos -tenants 4 -seeds 2 -metrics -report F`.
var tenantGolden = golden{"tenant-campaign.txt", func(w io.Writer) error {
	chaos.Run(chaos.Config{Seeds: 2, Metrics: true, Parallel: 1, Tenants: 4}).Render(w)
	return nil
}}

// experimentsGolden is `limit-experiments -scale 0.1`.
var experimentsGolden = golden{"experiments.txt", func(w io.Writer) error {
	experiments.SetParallel(1)
	for _, sc := range suiteSections {
		if err := runSection(sc, experiments.Quick, w, nil); err != nil {
			return err
		}
	}
	return nil
}}

// framesGolden is `limitctl metrics -app apache -scale 0.3 -format
// frames`: apache with the default multiplexed groups on 6 counters.
var framesGolden = golden{"frames-apache.jsonl", func(w io.Writer) error {
	ins := workloads.LimitInstr()
	ins.MuxGroups = workloads.DefaultMuxGroups(4)
	cfg := workloads.DefaultApache()
	cfg.RequestsPerWorker = scaleN(cfg.RequestsPerWorker, 0.3)
	app := workloads.BuildApache(cfg, ins)
	f := pmu.DefaultFeatures()
	f.NumCounters = 6
	kcfg := kernel.DefaultConfig()
	kcfg.MuxQuantum = 0
	kcfg.Tenants = 1
	m := machine.New(machine.Config{NumCores: 4, PMU: f, Kernel: kcfg})
	app.Launch(m)
	if res := m.Run(machine.RunLimits{}); len(res.Faults) > 0 {
		return fmt.Errorf("faults: %v", res.Faults)
	}
	return metrics.WriteJSONL(w, metrics.FromKernel(m.Kern))
}}
