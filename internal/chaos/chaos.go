// Package chaos runs seeded fault-injection campaigns against the
// LiMiT read path: N seeds × a matrix of fault mixes, every run
// carrying the faultinject injector and the invariant checker. A
// campaign is the executable form of the paper's atomicity claim —
// under forced preemption at every read boundary, spurious/delayed
// overflow interrupts, migration storms, flush storms and narrowed
// counter widths, the measured per-region deltas must stay exact and
// the invariant checker must stay silent. Disable fixup registration
// (the ablation) and the same campaign reports the torn reads instead
// of panicking.
//
// The campaign workload is a multi-threaded read loop: each thread
// owns a LiMiT instruction counter and repeatedly measures a
// fixed-size compute region with the stock rdpmc+load+add sequence,
// storing every measured delta. Because the region's true cost is
// known statically (K compute instructions + the read sequence
// itself), every stored delta is its own oracle: a fold landing inside
// an unrewound read shifts the delta by a full write-limit chunk,
// orders of magnitude beyond the re-execution slack.
package chaos

import (
	"errors"
	"fmt"
	"io"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/runner"
	"limitsim/internal/tabwrite"
	"limitsim/internal/telemetry"
)

// Mix names one fault-injection configuration of the campaign matrix.
type Mix struct {
	Name   string
	Inject faultinject.Config // Seed is overridden per run
}

// DefaultMixes returns the standard campaign matrix, from a clean
// baseline to the full storm. Rates use primes so no fault class can
// phase-lock with the workload's loop period.
func DefaultMixes() []Mix {
	return []Mix{
		{Name: "baseline", Inject: faultinject.Config{}},
		{Name: "preempt-storm", Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
		}},
		{Name: "pmi-storm", Inject: faultinject.Config{
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
		}},
		{Name: "migrate+flush", Inject: faultinject.Config{
			MigrationStorm: true, FlushEvery: 499,
		}},
		{Name: "full-mix", Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
			MigrationStorm: true, FlushEvery: 499,
			SignalDelayBoundaries: 5,
		}},
	}
}

// TenantMixes returns the multi-tenant campaign matrix: vCPU
// preemption storms at read-region boundaries, cross-tenant migration
// pressure, and the combined storm at both scheduling levels. The
// baseline still exercises the double context switch — tenant-quantum
// rotation alone forces vCPU switches — it just adds no injected
// faults on top.
func TenantMixes() []Mix {
	return []Mix{
		{Name: "tenant-baseline", Inject: faultinject.Config{}},
		{Name: "vcpu-preempt-storm", Inject: faultinject.Config{
			VCpuPreemptInRegions: true, VCpuPreemptEvery: 701,
		}},
		// Delayed overflow service with only occasional vCPU churn: the
		// double switches that do land must not drain the withheld PMIs
		// so aggressively that folds never meet an in-flight read — this
		// is the tenant mix whose ablation (-nofixup) demonstrably tears.
		{Name: "tenant-pmi-storm", Inject: faultinject.Config{
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
			VCpuPreemptEvery: 701,
		}},
		{Name: "vcpu-migrate+flush", Inject: faultinject.Config{
			VCpuPreemptEvery: 701, MigrationStorm: true, FlushEvery: 499,
		}},
		{Name: "tenant-full-mix", Inject: faultinject.Config{
			VCpuPreemptInRegions: true, VCpuPreemptEvery: 701,
			PreemptInRegions: true, PreemptEvery: 997,
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
			MigrationStorm: true, FlushEvery: 499,
			SignalDelayBoundaries: 5,
		}},
	}
}

// Config shapes a campaign.
type Config struct {
	// Seeds is how many seeds each mix runs (default 8).
	Seeds int
	// Threads is the workload's thread count (default 6 — more
	// threads than the default 4 cores, so natural quantum preemption
	// and run-queue contention join whatever the mix injects).
	Threads int
	// Cores is the machine's core count (default 4).
	Cores int
	// Iters is reads per thread (default 400).
	Iters int
	// ComputeK is the measured region's compute-instruction count
	// (default 25).
	ComputeK int
	// WriteWidth narrows the PMU's writable counter width so overflow
	// folds happen constantly (default 12 bits — a fold every 4096
	// events instead of every 2^31). Must be at least 10 so a torn
	// read's chunk-sized error stays far above the re-execution slack.
	WriteWidth int
	// NoFixup disables fixup-region registration — the ablation that
	// must make the campaign report torn reads.
	NoFixup bool
	// Metrics attaches the kernel telemetry layer to every run and
	// merges the per-run registries into Result.Telemetry. Off by
	// default: campaigns are hot loops and the telemetry block is a
	// diagnosis aid, not part of the verdict.
	Metrics bool
	// Parallel is the worker count runs fan out across: 1 is the
	// serial engine, <= 0 uses GOMAXPROCS. Reports are byte-identical
	// at every width — runs are independent simulations and results
	// merge in (mix, seed) key order after the pool drains.
	Parallel int
	// Tenants, when > 1, activates the kernel's guest-scheduler layer:
	// workload threads are dealt round-robin across that many tenant
	// VMs, every run gets a shared uncore counter block, the mix matrix
	// defaults to TenantMixes, and the tenant attribution oracles
	// (conservation, no cross-tenant leakage, uncore share bounds) run
	// after every run.
	Tenants int
	// Mixes is the fault matrix (default DefaultMixes; TenantMixes
	// when Tenants > 1).
	Mixes []Mix
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 8
	}
	if c.Threads <= 0 {
		c.Threads = 6
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.Iters <= 0 {
		c.Iters = 400
	}
	if c.ComputeK <= 0 {
		c.ComputeK = 25
	}
	if c.WriteWidth <= 0 {
		c.WriteWidth = 12
	}
	if len(c.Mixes) == 0 {
		if c.Tenants > 1 {
			c.Mixes = TenantMixes()
		} else {
			c.Mixes = DefaultMixes()
		}
	}
	return c
}

// deltaSlack is the tolerated overshoot of a measured delta above its
// static cost: re-executed instructions from fixup rewinds (budgeted
// per region pass) plus the odd natural preemption. A torn read is off
// by a full write-limit chunk (≥ 2^10), far beyond it.
const deltaSlack = 256

// runSteps bounds one run; hitting it means a livelock and is reported
// as a run error rather than a hang.
const runSteps = 50_000_000

// MixResult aggregates one mix's runs across all seeds.
type MixResult struct {
	Name string
	Runs int
	// RunErrors counts runs that faulted, deadlocked, or hit the step
	// bound; Errs keeps one message per failed run.
	RunErrors int
	Errs      []string

	Injected faultinject.Stats

	Rewinds        uint64
	Folds          uint64
	CtxSwitches    uint64
	Migrations     uint64
	ReadsCompleted uint64

	// TornDeltas counts stored deltas outside [want, want+slack] — the
	// value oracle's torn reads.
	TornDeltas uint64
	// CheckerViolations is the invariant checker's total count.
	CheckerViolations int
	// Samples holds a few representative checker violations.
	Samples []invariant.Violation

	// Tenant-layer aggregates (zero unless the campaign ran with
	// Tenants > 1): double-switch and vCPU-migration counts, the
	// socket uncore total, and the summed |estimate − truth| error of
	// the share-by-cycles attribution policy.
	VCpuSwitches   uint64
	VCpuMigrations uint64
	TenantPreempts uint64
	UncoreTotal    uint64
	UncoreAbsErr   uint64
}

// Violations is the mix's total evidence of broken invariants from
// both oracles.
func (m *MixResult) Violations() uint64 {
	return m.TornDeltas + uint64(m.CheckerViolations)
}

// Result is a full campaign's outcome.
type Result struct {
	Cfg   Config
	Mixes []MixResult
	// Want is the static per-read delta every stored measurement is
	// judged against.
	Want uint64
	// Telemetry is the campaign-wide kernel metrics registry, merged
	// across every run, when Cfg.Metrics is set (nil otherwise).
	// Byte-deterministic for a given Config, like the rest of the
	// report.
	Telemetry *telemetry.Registry
	// Err is the lowest-keyed job failure the runner reported: a job
	// that panicked, which also cancelled every job not yet claimed, so
	// the mix tables are incomplete. Nil for a campaign that ran every
	// job.
	Err error
}

// Verdict applies the campaign's exit discipline: a lost job or a
// failed run fails the campaign; with the fixup patch active it must
// report no violations, and with it ablated (Cfg.NoFixup) it must
// report some, because a blind checker is as bad as a torn read.
func (r *Result) Verdict() error {
	violations := r.TotalViolations()
	switch {
	case r.Err != nil:
		return r.Err
	case r.TotalRunErrors() > 0:
		return fmt.Errorf("%d run(s) failed", r.TotalRunErrors())
	case r.Cfg.NoFixup && violations == 0:
		return errors.New("fixup disabled but no torn reads detected — checker is blind")
	case !r.Cfg.NoFixup && violations > 0:
		return fmt.Errorf("%d invariant violation(s) with fixup enabled", violations)
	}
	return nil
}

// TotalViolations sums violations across the matrix.
func (r *Result) TotalViolations() uint64 {
	var n uint64
	for i := range r.Mixes {
		n += r.Mixes[i].Violations()
	}
	return n
}

// TotalRunErrors sums failed runs across the matrix.
func (r *Result) TotalRunErrors() int {
	n := 0
	for i := range r.Mixes {
		n += r.Mixes[i].RunErrors
	}
	return n
}

// Run executes the campaign: for each mix, Seeds independent runs of
// the instrumented workload under that mix's injector, every run
// watched by the invariant checker and scored by the value oracle.
//
// Runs fan out across cfg.Parallel workers through the runner engine.
// Each run is a self-contained simulation (own machine, own restored
// workload memory), outcomes land in slots keyed by (mix, seed) and
// fold into mix results in key order after the pool drains, and
// telemetry merges are commutative sums — so the rendered report is
// byte-identical at every pool width, including the serial engine.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Cfg: cfg}
	if cfg.Metrics {
		// The campaign registry is built by the same constructors as
		// each worker's, so the post-barrier merges cannot mismatch.
		res.Telemetry = telemetry.NewRegistry()
		kernel.NewMetrics(res.Telemetry)
		if cfg.Tenants > 1 {
			kernel.NewTenantMetrics(res.Telemetry, cfg.Tenants)
		}
	}
	rc := runner.Config{Jobs: len(cfg.Mixes) * cfg.Seeds, Parallel: cfg.Parallel}
	workers := make([]*campaignWorker, rc.Workers())
	outs := make([]runOutcome, rc.Jobs)
	res.Err = runner.Run(rc, func(j, wi int) error {
		if workers[wi] == nil {
			workers[wi] = newCampaignWorker(cfg)
		}
		mi, s := j/cfg.Seeds, j%cfg.Seeds
		runJob(cfg, cfg.Mixes[mi], RunSeed(mi, s), workers[wi], &outs[j])
		return nil
	})
	// Every worker built the same workload, so any of them knows its
	// static per-read delta; a slot that claimed no job stays nil.
	for _, ws := range workers {
		if ws != nil {
			res.Want = ws.w.want
			break
		}
	}
	for mi := range cfg.Mixes {
		mr := MixResult{Name: cfg.Mixes[mi].Name}
		for s := 0; s < cfg.Seeds; s++ {
			outs[mi*cfg.Seeds+s].foldInto(&mr)
		}
		res.Mixes = append(res.Mixes, mr)
	}
	mergeWorkerTelemetry(res.Telemetry, workers)
	return res
}

// mergeWorkerTelemetry folds each worker's aggregate registry into the
// campaign registry, post-barrier, in worker order. The fold is a
// commutative sum, so which worker executed which run cannot change
// the merged block.
func mergeWorkerTelemetry[W interface{ aggregate() *telemetry.Registry }](agg *telemetry.Registry, workers []W) {
	if agg == nil {
		return
	}
	for _, ws := range workers {
		if r := ws.aggregate(); r != nil {
			agg.MustMerge(r)
		}
	}
}

// workload is one built campaign program.
type workload struct {
	prog    *isa.Program
	space   *mem.Space
	entries []int
	bufs    []uint64
	regions [][2]int
	want    uint64 // static per-read delta: ComputeK + read-sequence length
}

// buildWorkload assembles the multi-threaded read loop. Each thread
// gets its own body, emitter, counter table and delta buffer, so
// per-thread virtualization is genuinely independent and the checker's
// fold generations never alias.
func buildWorkload(cfg Config) *workload {
	w := &workload{space: mem.NewSpace()}
	b := isa.NewBuilder()
	for i := 0; i < cfg.Threads; i++ {
		table := limit.AllocTable(w.space, 1)
		e := limit.NewEmitter(b, limit.ModeStock, table)
		ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
		if cfg.NoFixup {
			e.DisableFixupRegistration()
		}
		buf := w.space.AllocWords(uint64(cfg.Iters))
		w.bufs = append(w.bufs, buf)
		w.entries = append(w.entries, b.PC())
		e.EmitInit()
		b.MovImm(isa.R12, int64(buf))
		b.MovImm(isa.R8, 0)
		loop := fmt.Sprintf("chaos.t%d.loop", i)
		b.Label(loop)
		e.EmitMeasureStart(isa.R4, isa.R5, ctr)
		b.Compute(int64(cfg.ComputeK))
		e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
		b.Shl(isa.R13, isa.R8, 3)
		b.Add(isa.R13, isa.R13, isa.R12)
		b.Store(isa.R13, 0, isa.R6)
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, int64(cfg.Iters))
		b.Br(isa.CondLT, isa.R8, isa.R9, loop)
		b.Halt()
		e.EmitFinish()
		w.regions = append(w.regions, e.Regions()...)
	}
	w.prog = b.MustBuild()
	r := w.regions[0]
	w.want = uint64(cfg.ComputeK) + uint64(r[1]-r[0])
	return w
}

// campaignWorker holds one pool worker's reusable run artifacts: the
// workload (program, memory image, counter tables, delta buffers) is
// built once and its memory snapshotted, then every run restores the
// snapshot instead of reassembling; the invariant checker, injector
// and telemetry registry are Reset between runs instead of
// reallocated. The machine is rebuilt per run — it is the simulation
// state itself, not scaffolding — but each run releases it when done,
// so the next machine's caches reuse its tag memory.
type campaignWorker struct {
	w    *workload
	snap *mem.Snapshot
	chk  *invariant.Checker
	inj  *faultinject.Injector
	reg  *telemetry.Registry // per-run scratch registry (nil without Metrics)
	km   *kernel.Metrics
	tm   *kernel.TenantMetrics // per-tenant counters (nil unless Metrics && Tenants > 1)
	agg  *telemetry.Registry   // this worker's cross-run aggregate
}

func newCampaignWorker(cfg Config) *campaignWorker {
	ws := &campaignWorker{w: buildWorkload(cfg)}
	ws.snap = ws.w.space.Snapshot()
	ws.chk = invariant.New(ws.w.regions)
	ws.inj = faultinject.New(faultinject.Config{})
	ws.inj.SetRegions(ws.w.regions)
	ws.inj.SetCores(cfg.Cores)
	if cfg.Metrics {
		ws.reg = telemetry.NewRegistry()
		ws.km = kernel.NewMetrics(ws.reg)
		ws.agg = telemetry.NewRegistry()
		kernel.NewMetrics(ws.agg)
		if cfg.Tenants > 1 {
			ws.tm = kernel.NewTenantMetrics(ws.reg, cfg.Tenants)
			kernel.NewTenantMetrics(ws.agg, cfg.Tenants)
		}
	}
	return ws
}

// aggregate is nil-receiver-safe: a pool wider than the job count
// leaves its surplus worker slots nil.
func (ws *campaignWorker) aggregate() *telemetry.Registry {
	if ws == nil {
		return nil
	}
	return ws.agg
}

// runOutcome is one run's contribution to its mix result, recorded in
// a keyed slot so the post-barrier fold is order-independent.
type runOutcome struct {
	errMsg string

	injected faultinject.Stats

	rewinds        uint64
	folds          uint64
	ctxSwitches    uint64
	migrations     uint64
	readsCompleted uint64

	tornDeltas        uint64
	checkerViolations int
	samples           []invariant.Violation

	vcpuSwitches   uint64
	vcpuMigrations uint64
	tenantPreempts uint64
	uncoreTotal    uint64
	uncoreAbsErr   uint64
}

// foldInto replays the outcome onto the mix aggregate exactly as the
// serial loop used to.
func (o *runOutcome) foldInto(mr *MixResult) {
	mr.Runs++
	if o.errMsg != "" {
		mr.RunErrors++
		mr.Errs = append(mr.Errs, o.errMsg)
	}
	mr.Injected.Add(o.injected)
	mr.Rewinds += o.rewinds
	mr.Folds += o.folds
	mr.CtxSwitches += o.ctxSwitches
	mr.Migrations += o.migrations
	mr.ReadsCompleted += o.readsCompleted
	mr.TornDeltas += o.tornDeltas
	mr.CheckerViolations += o.checkerViolations
	mr.VCpuSwitches += o.vcpuSwitches
	mr.VCpuMigrations += o.vcpuMigrations
	mr.TenantPreempts += o.tenantPreempts
	mr.UncoreTotal += o.uncoreTotal
	mr.UncoreAbsErr += o.uncoreAbsErr
	for _, v := range o.samples {
		if len(mr.Samples) >= 8 {
			break
		}
		mr.Samples = append(mr.Samples, v)
	}
}

// runJob is the campaign's per-job function; a test swaps it to inject
// a panic into one job.
var runJob = runOne

// runOne executes a single seeded run on worker ws and records its
// outcome into out. The worker's pooled artifacts are restored/reset
// to their pristine state first, so a run's behaviour cannot depend on
// which runs the worker executed before it.
func runOne(cfg Config, mix Mix, seed uint64, ws *campaignWorker, out *runOutcome) {
	simulate(cfg, mix, seed, ws, out).Release()
}

// simulate is runOne without the final Release: it returns the
// finished machine so tests can inspect its end state.
func simulate(cfg Config, mix Mix, seed uint64, ws *campaignWorker, out *runOutcome) *machine.Machine {
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = cfg.WriteWidth

	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	kcfg.Quantum = 30_000 // short slices: natural preemption joins the storm
	kcfg.LimitOverflow = kernel.FoldInKernel
	if cfg.Tenants > 1 {
		kcfg.Tenants = cfg.Tenants
		// Tenant quantum shorter than the thread quantum: vCPU switches
		// dominate, so nearly every thread deschedule is the double kind.
		kcfg.TenantQuantum = 12_000
		if cfg.Cores > 1 {
			// Undersubscribe residency so the cap binds and cross-tenant
			// migration pressure is constant, not incidental.
			kcfg.VCPUs = cfg.Cores - 1
		}
	}

	w := ws.w
	w.space.Restore(ws.snap)
	m := machine.New(machine.Config{
		NumCores:      cfg.Cores,
		PMU:           feats,
		Kernel:        kcfg,
		TraceCapacity: 256,
		Uncore:        cfg.Tenants > 1,
	})

	icfg := mix.Inject
	icfg.Seed = seed ^ 0x5ca1ab1e
	icfg.NumSlots = feats.NumCounters
	ws.inj.Reset(icfg)
	ws.inj.Attach(m.Kern)

	ws.chk.Reset()
	ws.chk.Attach(m.Kern)

	if ws.km != nil {
		ws.reg.Reset()
		m.Kern.SetMetrics(ws.km)
		if ws.tm != nil {
			m.Kern.SetTenantMetrics(ws.tm)
		}
	}

	proc := m.Kern.NewProcess(w.prog, w.space)
	for i := 0; i < cfg.Threads; i++ {
		t := m.Kern.Spawn(proc, fmt.Sprintf("chaos%d", i), w.entries[i], seed*31+uint64(i))
		if cfg.Tenants > 1 {
			t.Tenant = i % cfg.Tenants // deal threads round-robin across guests
		}
	}

	res := m.Run(machine.RunLimits{MaxSteps: runSteps})
	switch {
	case res.Err != nil:
		out.errMsg = fmt.Sprintf("seed %#x: %v", seed, res.Err)
	case !res.AllDone:
		out.errMsg = fmt.Sprintf("seed %#x: run hit %d-step bound (livelock?)", seed, runSteps)
	}

	ws.chk.Finalize(proc, m.Kern.Threads(), 0)

	if accts := m.Kern.TenantAccts(); accts != nil {
		ut := m.Kern.UncoreTotal()
		ws.chk.CheckTenants(accts,
			m.GroundTruthRing(pmu.EvInstructions, pmu.RingUser), ut,
			m.Kern.Threads())
		out.uncoreTotal = ut
		for _, a := range accts {
			if a.UncoreEst >= a.Uncore {
				out.uncoreAbsErr += a.UncoreEst - a.Uncore
			} else {
				out.uncoreAbsErr += a.Uncore - a.UncoreEst
			}
		}
		out.vcpuSwitches = m.Kern.Stats.VCpuSwitches
		out.vcpuMigrations = m.Kern.Stats.VCpuMigrations
		out.tenantPreempts = m.Kern.Stats.TenantPreemptions
	}

	// Value oracle: every stored delta must sit within the static
	// cost's slack; a torn read is off by a write-limit chunk.
	for ti := 0; ti < cfg.Threads; ti++ {
		for it := 0; it < cfg.Iters; it++ {
			d := w.space.Read64(w.bufs[ti] + uint64(it)*8)
			if d < w.want || d > w.want+deltaSlack {
				out.tornDeltas++
			}
		}
	}

	out.injected = ws.inj.Stats

	out.folds = m.Kern.Stats.OverflowFolds
	out.ctxSwitches = m.Kern.Stats.CtxSwitches
	out.migrations = m.Kern.Stats.Migrations
	out.readsCompleted = ws.chk.ReadsCompleted
	for _, t := range m.Kern.Threads() {
		out.rewinds += t.Stats.FixupRewinds
	}
	out.checkerViolations = ws.chk.Count()
	for _, v := range ws.chk.Violations() {
		if len(out.samples) >= 8 {
			break
		}
		out.samples = append(out.samples, v)
	}
	if ws.km != nil {
		ws.agg.MustMerge(ws.reg)
	}
	return m
}

// Render writes the campaign table (and a violation detail section
// when any invariant broke). Output is byte-deterministic for a given
// Config.
func (r *Result) Render(w io.Writer) {
	fixup := "enabled"
	if r.Cfg.NoFixup {
		fixup = "DISABLED (ablation)"
	}
	title := fmt.Sprintf("Chaos campaign: %d seed(s) x %d mix(es), %d threads / %d cores, %d-bit writes, fixup %s",
		r.Cfg.Seeds, len(r.Mixes), r.Cfg.Threads, r.Cfg.Cores, r.Cfg.WriteWidth, fixup)
	t := tabwrite.New(title,
		"mix", "runs", "injected", "preempts", "spur-pmi", "delay-pmi",
		"migrations", "flushes", "rewinds", "folds", "reads", "torn", "violations", "errors")
	for i := range r.Mixes {
		m := &r.Mixes[i]
		t.Row(m.Name, m.Runs, m.Injected.Total(),
			m.Injected.ForcedPreemptions+m.Injected.RandomPreemptions,
			m.Injected.SpuriousPMIs, m.Injected.DelayedPMIs,
			m.Migrations, m.Injected.Flushes,
			m.Rewinds, m.Folds, m.ReadsCompleted,
			m.TornDeltas, m.CheckerViolations, m.RunErrors)
	}
	t.Render(w)

	if r.Cfg.Tenants > 1 {
		tt := tabwrite.New(
			fmt.Sprintf("Tenant layer (%d tenants): double switches and uncore attribution", r.Cfg.Tenants),
			"mix", "vcpu-switches", "vcpu-preempts", "vcpu-migrations",
			"uncore-total", "uncore-abs-err", "err-pct")
		for i := range r.Mixes {
			m := &r.Mixes[i]
			pct := "0.00"
			if m.UncoreTotal > 0 {
				pct = fmt.Sprintf("%.2f", 100*float64(m.UncoreAbsErr)/float64(m.UncoreTotal))
			}
			tt.Row(m.Name, m.VCpuSwitches, m.TenantPreempts, m.VCpuMigrations,
				m.UncoreTotal, m.UncoreAbsErr, pct)
		}
		tt.Render(w)
	}

	if r.TotalViolations() > 0 {
		d := tabwrite.New("Invariant violations (samples)", "mix", "thread", "kind", "detail")
		for i := range r.Mixes {
			m := &r.Mixes[i]
			for _, v := range m.Samples {
				d.Row(m.Name, v.TID, v.Kind, v.Detail)
			}
			if m.TornDeltas > 0 {
				d.Row(m.Name, "-", "torn-delta",
					fmt.Sprintf("%d measured delta(s) outside [%d,%d]",
						m.TornDeltas, r.Want, r.Want+deltaSlack))
			}
		}
		d.Render(w)
	}
	for i := range r.Mixes {
		for _, e := range r.Mixes[i].Errs {
			fmt.Fprintf(w, "run error [%s] %s\n", r.Mixes[i].Name, e)
		}
	}

	if r.Telemetry != nil {
		runs := 0
		for i := range r.Mixes {
			runs += r.Mixes[i].Runs
		}
		fmt.Fprintf(w, "\nKernel telemetry (merged across %d runs)\n", runs)
		r.Telemetry.Render(w)
	}
}
