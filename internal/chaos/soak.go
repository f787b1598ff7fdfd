package chaos

import (
	"errors"
	"fmt"
	"io"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/runner"
	"limitsim/internal/tabwrite"
	"limitsim/internal/telemetry"
	"limitsim/internal/tls"
	"limitsim/internal/workloads"
)

// Soak campaign: the lifecycle analogue of the read-path campaign in
// this package. Where Run hammers a static thread set's read sequences,
// RunSoak drives the churning thread-pool workload (workloads.Churn —
// a manager cloning and joining waves of short-lived workers, the
// MySQL-connection-churn shape) through a matrix of lifecycle fault
// mixes: forced preemption inside read regions, asynchronous kills of
// pool workers, clone storms that stampede inheritance, and pinned-slot
// capacities tight enough to force graceful degradation. Every run
// carries the invariant checker; after every run the campaign audits
// leak-freedom (all slots, table words and region registrations
// returned), inheritance conservation (an inherited counter's reap
// value equals its thread's true instruction total), and the value
// oracle over every exact worker measurement. Estimated (degraded)
// runs are accounted separately — flagged, never silently wrong.

// SoakMix names one lifecycle fault mix. SlotCapacity, when nonzero,
// overrides the campaign's pinned-slot ledger capacity for this mix —
// exhaustion is a fault class here, not just a config.
type SoakMix struct {
	Name         string
	Inject       faultinject.Config // Seed/CloneEntry are set per run
	SlotCapacity int
}

// DefaultSoakMixes returns the standard lifecycle matrix for a pool of
// the given width. Rates use primes so no fault class phase-locks with
// the wave period.
func DefaultSoakMixes(pool int) []SoakMix {
	full := 2*(pool+1) + 4
	return []SoakMix{
		{Name: "churn-only", Inject: faultinject.Config{}},
		{Name: "preempt-churn", Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
		}},
		// Delayed PMIs slide folds into the read window; with fixup
		// active the rewind absorbs them, without it this is the mix
		// that reliably exposes torn reads.
		{Name: "pmi-churn", Inject: faultinject.Config{
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
		}},
		{Name: "kill-storm", Inject: faultinject.Config{
			KillEvery: 40009, KillClonesOnly: true,
		}},
		{Name: "clone-storm", Inject: faultinject.Config{
			CloneEvery: 20011, CloneBudget: 48,
		}},
		{Name: "slot-burst", SlotCapacity: 2 * pool, Inject: faultinject.Config{
			CloneEvery: 30011, CloneBudget: 32,
		}},
		{Name: "mgr-fallback", SlotCapacity: 1, Inject: faultinject.Config{}},
		{Name: "full-churn", SlotCapacity: full, Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
			KillEvery: 40009, KillClonesOnly: true,
			CloneEvery: 20011, CloneBudget: 48,
		}},
	}
}

// SoakConfig shapes a soak campaign.
type SoakConfig struct {
	// Seeds is how many seeds each mix runs (default 4).
	Seeds int
	// Pool is the worker-pool width (default 4).
	Pool int
	// Waves is clone/join rounds per run (default 6).
	Waves int
	// Iters is measured reads per worker (default 40).
	Iters int
	// ComputeK is the measured region's compute count (default 20).
	ComputeK int
	// Cores is the machine's core count (default 4).
	Cores int
	// WriteWidth narrows the PMU's writable width so even short-lived
	// workers cross fold boundaries (default 10, the narrowest width
	// whose chunk still dwarfs the value oracle's slack).
	WriteWidth int
	// SlotCapacity is the pinned-slot ledger capacity for mixes that do
	// not override it (default 2*(Pool+1)+4: the full pool plus
	// headroom for storm children).
	SlotCapacity int
	// Retries is the manager OpenPolicy retry budget (0: policy
	// default).
	Retries int
	// NoFixup disables fixup-region registration — the ablation the
	// campaign must detect as torn reads.
	NoFixup bool
	// AblateReclaim disables exit-time resource reclamation — the
	// ablation the leak and bad-reap oracles must detect.
	AblateReclaim bool
	// Metrics attaches the kernel telemetry layer to every run and
	// merges the per-run registries into SoakResult.Telemetry.
	Metrics bool
	// Parallel is the worker count seeds fan out across within each
	// mix: 1 is the serial engine, <= 0 uses GOMAXPROCS. Mixes run
	// sequentially (workers persist across them); reports stay
	// byte-identical at every width.
	Parallel int
	// Tenants, when > 1, runs that many independent manager+pool copies
	// as guest VMs under the kernel's tenant scheduler: slot capacities
	// scale with the combined pool, every run gets a shared uncore
	// block, a vCPU-churn mix joins the matrix, and the tenant
	// attribution oracles run after every run.
	Tenants int
	// Mixes is the lifecycle fault matrix (default DefaultSoakMixes).
	Mixes []SoakMix
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Seeds <= 0 {
		c.Seeds = 4
	}
	if c.Pool <= 0 {
		c.Pool = 4
	}
	if c.Waves <= 0 {
		c.Waves = 6
	}
	if c.Iters <= 0 {
		c.Iters = 40
	}
	if c.ComputeK <= 0 {
		c.ComputeK = 20
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.WriteWidth <= 0 {
		c.WriteWidth = 10
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.SlotCapacity <= 0 {
		// The combined pool across all guests, plus storm headroom.
		c.SlotCapacity = 2*c.Tenants*(c.Pool+1) + 4
	}
	if len(c.Mixes) == 0 {
		c.Mixes = SoakMixes(c.Pool, c.Tenants)
	}
	return c
}

// SoakMixes returns the default lifecycle matrix for a soak of the
// given per-tenant pool width and tenant count: DefaultSoakMixes sized
// to the combined pool, plus — when the tenant layer is on — a
// vCPU-churn mix that lands double context switches inside read
// regions while the pools churn.
func SoakMixes(pool, tenants int) []SoakMix {
	if tenants <= 0 {
		tenants = 1
	}
	mixes := DefaultSoakMixes(tenants * pool)
	if tenants > 1 {
		mixes = append(mixes, SoakMix{Name: "vcpu-churn",
			Inject: faultinject.Config{
				VCpuPreemptInRegions: true, VCpuPreemptEvery: 701,
			}})
	}
	return mixes
}

func (c SoakConfig) churn() workloads.ChurnConfig {
	return workloads.ChurnConfig{
		Pool:     c.Pool,
		Waves:    c.Waves,
		Iters:    c.Iters,
		ComputeK: c.ComputeK,
		Retries:  c.Retries,
		NoFixup:  c.NoFixup,
		Tenants:  c.Tenants,
	}
}

// WaveAcct is one wave's worker-run accounting, aggregated across a
// mix's seeds.
type WaveAcct struct {
	Exact   uint64 // completed on the exact rdpmc path
	Est     uint64 // completed on the flagged estimated path
	Partial uint64 // killed (or degraded mid-run) before finishing
}

// SoakMixResult aggregates one lifecycle mix's runs across all seeds.
type SoakMixResult struct {
	Name      string
	Runs      int
	RunErrors int
	Errs      []string

	Injected faultinject.Stats

	// Kernel lifecycle traffic.
	Clones uint64
	Exits  uint64
	Kills  uint64

	// Slot-ledger pressure and its visible consequences.
	Denials      uint64
	DegradedRuns uint64 // worker runs flagged as estimates

	CompletedRuns uint64
	PartialRuns   uint64
	Waves         []WaveAcct

	Folds          uint64
	Rewinds        uint64
	ReadsCompleted uint64

	// TornDeltas counts exact-path measurements outside the static
	// cost's slack; BadConservation counts inherited counters whose
	// reap value diverged from the thread's true instruction count;
	// Leaks counts resource-leak reports from the end-of-run audit.
	TornDeltas        uint64
	BadConservation   uint64
	Leaks             int
	CheckerViolations int
	Samples           []invariant.Violation

	// Tenant-layer aggregates (zero unless the soak ran with
	// Tenants > 1); see MixResult for their meaning.
	VCpuSwitches   uint64
	VCpuMigrations uint64
	TenantPreempts uint64
	UncoreTotal    uint64
	UncoreAbsErr   uint64
}

// Violations totals the mix's evidence from all three oracles.
func (m *SoakMixResult) Violations() uint64 {
	return m.TornDeltas + m.BadConservation + uint64(m.CheckerViolations)
}

// SoakResult is a full soak campaign's outcome.
type SoakResult struct {
	Cfg   SoakConfig
	Mixes []SoakMixResult
	// Want is the static per-read delta exact measurements are judged
	// against.
	Want uint64
	// Telemetry is the campaign-wide kernel metrics registry, merged
	// across every run, when Cfg.Metrics is set (nil otherwise).
	Telemetry *telemetry.Registry
	// Err is the first job failure the runner reported, in (mix, seed)
	// order: a job that panicked, which also cancelled the rest of its
	// mix. Nil for a soak that ran every job.
	Err error
}

// Verdict applies the soak's exit discipline: a lost job or a failed
// run fails the soak; a sabotaged configuration (Cfg.NoFixup or
// Cfg.AblateReclaim) must detect its own damage, and a healthy one
// must detect nothing.
func (r *SoakResult) Verdict() error {
	sabotaged := r.Cfg.NoFixup || r.Cfg.AblateReclaim
	violations := r.TotalViolations()
	switch {
	case r.Err != nil:
		return r.Err
	case r.TotalRunErrors() > 0:
		return fmt.Errorf("%d soak run(s) failed", r.TotalRunErrors())
	case sabotaged && violations == 0:
		return errors.New("ablation enabled but no violations detected — the oracles are blind")
	case !sabotaged && violations > 0:
		return fmt.Errorf("%d violation(s) in a healthy soak", violations)
	}
	return nil
}

// TotalViolations sums violations across the matrix.
func (r *SoakResult) TotalViolations() uint64 {
	var n uint64
	for i := range r.Mixes {
		n += r.Mixes[i].Violations()
	}
	return n
}

// TotalRunErrors sums failed runs across the matrix.
func (r *SoakResult) TotalRunErrors() int {
	n := 0
	for i := range r.Mixes {
		n += r.Mixes[i].RunErrors
	}
	return n
}

// TotalDegraded sums flagged estimated runs across the matrix.
func (r *SoakResult) TotalDegraded() uint64 {
	var n uint64
	for i := range r.Mixes {
		n += r.Mixes[i].DegradedRuns
	}
	return n
}

// RunSoak executes the soak campaign: for each lifecycle mix, Seeds
// independent long runs of the churn workload under that mix's
// injector and slot capacity, each audited by the invariant checker
// and the campaign's leak, conservation and value oracles.
//
// Within each mix, seeds fan out across cfg.Parallel workers through
// the runner engine; mixes themselves run sequentially so the worker
// pool (and its prebuilt churn workloads) persists across the matrix.
// Outcomes land in seed-keyed slots and fold in seed order, so the
// report is byte-identical at every pool width.
func RunSoak(cfg SoakConfig) *SoakResult {
	cfg = cfg.withDefaults()
	res := &SoakResult{Cfg: cfg, Want: workloads.BuildChurn(cfg.churn()).Want}
	if cfg.Metrics {
		res.Telemetry = telemetry.NewRegistry()
		kernel.NewMetrics(res.Telemetry)
		if cfg.Tenants > 1 {
			kernel.NewTenantMetrics(res.Telemetry, cfg.Tenants)
		}
	}
	rc := runner.Config{Jobs: cfg.Seeds, Parallel: cfg.Parallel}
	workers := make([]*soakWorker, rc.Workers())
	for mi := range cfg.Mixes {
		mix := cfg.Mixes[mi]
		outs := make([]soakOutcome, cfg.Seeds)
		err := runner.Run(rc, func(j, wi int) error {
			if workers[wi] == nil {
				workers[wi] = newSoakWorker(cfg)
			}
			runSoakJob(cfg, mix, RunSeed(mi, j), workers[wi], &outs[j])
			return nil
		})
		if err != nil && res.Err == nil {
			res.Err = fmt.Errorf("soak mix %s: %w", mix.Name, err)
		}
		mr := SoakMixResult{Name: mix.Name, Waves: make([]WaveAcct, cfg.Waves)}
		for s := range outs {
			outs[s].foldInto(&mr)
		}
		res.Mixes = append(res.Mixes, mr)
	}
	mergeWorkerTelemetry(res.Telemetry, workers)
	return res
}

// soakWorker holds one pool worker's reusable soak artifacts: the
// churn workload is built once and its memory image snapshotted, the
// checker/injector/registries are Reset between runs. The machine is
// rebuilt per run.
type soakWorker struct {
	w    *workloads.Churn
	snap *mem.Snapshot
	chk  *invariant.Checker
	inj  *faultinject.Injector
	reg  *telemetry.Registry
	km   *kernel.Metrics
	tm   *kernel.TenantMetrics
	agg  *telemetry.Registry
}

func newSoakWorker(cfg SoakConfig) *soakWorker {
	ws := &soakWorker{w: workloads.BuildChurn(cfg.churn())}
	ws.snap = ws.w.Space.Snapshot()
	ws.chk = invariant.New(ws.w.Regions)
	ws.inj = faultinject.New(faultinject.Config{})
	ws.inj.SetRegions(ws.w.Regions)
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
func (ws *soakWorker) aggregate() *telemetry.Registry {
	if ws == nil {
		return nil
	}
	return ws.agg
}

// soakOutcome is one soak run's contribution to its mix result,
// recorded in a seed-keyed slot for the order-independent fold.
type soakOutcome struct {
	errMsg string

	injected faultinject.Stats

	clones  uint64
	exits   uint64
	kills   uint64
	denials uint64

	degradedRuns  uint64
	completedRuns uint64
	partialRuns   uint64
	waves         []WaveAcct

	folds          uint64
	rewinds        uint64
	readsCompleted uint64

	tornDeltas        uint64
	badConservation   uint64
	leaks             int
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
func (o *soakOutcome) foldInto(mr *SoakMixResult) {
	mr.Runs++
	if o.errMsg != "" {
		mr.RunErrors++
		mr.Errs = append(mr.Errs, o.errMsg)
	}
	mr.Injected.Add(o.injected)
	mr.Clones += o.clones
	mr.Exits += o.exits
	mr.Kills += o.kills
	mr.Denials += o.denials
	mr.DegradedRuns += o.degradedRuns
	mr.CompletedRuns += o.completedRuns
	mr.PartialRuns += o.partialRuns
	for wv := range o.waves {
		mr.Waves[wv].Exact += o.waves[wv].Exact
		mr.Waves[wv].Est += o.waves[wv].Est
		mr.Waves[wv].Partial += o.waves[wv].Partial
	}
	mr.Folds += o.folds
	mr.Rewinds += o.rewinds
	mr.ReadsCompleted += o.readsCompleted
	mr.TornDeltas += o.tornDeltas
	mr.BadConservation += o.badConservation
	mr.Leaks += o.leaks
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

// runSoakJob is the soak's per-job function; a test swaps it to inject
// a panic into one job.
var runSoakJob = runOneSoak

// runOneSoak executes a single seeded soak run on worker ws and
// records its outcome into out.
func runOneSoak(cfg SoakConfig, mix SoakMix, seed uint64, ws *soakWorker, out *soakOutcome) {
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = cfg.WriteWidth

	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	kcfg.Quantum = 30_000
	kcfg.LimitOverflow = kernel.FoldInKernel
	kcfg.VirtSlotCapacity = cfg.SlotCapacity
	if mix.SlotCapacity > 0 {
		kcfg.VirtSlotCapacity = mix.SlotCapacity
	}
	kcfg.AblateReclaim = cfg.AblateReclaim
	if cfg.Tenants > 1 {
		kcfg.Tenants = cfg.Tenants
		kcfg.TenantQuantum = 12_000
		if cfg.Cores > 1 {
			kcfg.VCPUs = cfg.Cores - 1
		}
	}

	w := ws.w
	w.Space.Restore(ws.snap)
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
	if icfg.CloneEvery > 0 {
		icfg.CloneEntry = w.StubEntry
	}
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

	proc := m.Kern.NewProcess(w.Prog, w.Space)
	for mt := 0; mt < cfg.Tenants; mt++ {
		name := "churn-mgr"
		if cfg.Tenants > 1 {
			name = fmt.Sprintf("churn-mgr%d", mt)
		}
		mgr := m.Kern.Spawn(proc, name, w.Entries[mt], seed*31+uint64(mt))
		mgr.SetReg(tls.SlotReg, uint64(w.ManagerSlot(mt)))
		mgr.Tenant = mt
	}

	res := m.Run(machine.RunLimits{MaxSteps: runSteps})
	switch {
	case res.Err != nil:
		out.errMsg = fmt.Sprintf("seed %#x: %v", seed, res.Err)
	case !res.AllDone:
		out.errMsg = fmt.Sprintf("seed %#x: run hit %d-step bound (livelock?)", seed, runSteps)
	}

	// Leak oracle: with every thread exited, the kernel's resource
	// ledgers must read zero. Under AblateReclaim they must NOT — the
	// checker reporting the leaks is the ablation detecting itself.
	if res.AllDone {
		ws.chk.CheckLeaks(m.Kern.Resources())
	}

	// Conservation oracle: every cloned thread's inherited instruction
	// counter (index 0, live from birth to reap) must end exactly equal
	// to the thread's true retired-user-instruction count. Degraded
	// children carry perf estimates instead and are exempt by kind.
	// (The end-of-run Finalize pass is deliberately not used here: the
	// pool recycles per-slot table words every wave, so dead workers'
	// counters alias live words; the reap-time capture is the correct
	// final value.)
	for _, t := range m.Kern.Threads() {
		if t.ClonedFrom < 0 {
			continue
		}
		cs := t.Counters()
		if len(cs) == 0 || cs[0].Kind != kernel.KindLimit || cs[0].Closed {
			continue
		}
		if v, ok := ws.chk.ReapValue(t.ID, 0); ok && v != t.Stats.UserInstructions {
			out.badConservation++
		}
	}

	// Value oracle: every exact-path measurement a worker published
	// before finishing (or dying) must sit within the static cost's
	// slack; estimated runs are flagged, counted, and skipped.
	out.waves = make([]WaveAcct, cfg.Waves)
	for ri := 0; ri < w.Runs(); ri++ {
		wave := ri / (cfg.Tenants * cfg.Pool)
		est := w.Estimated(ri)
		if est {
			out.degradedRuns++
		}
		n := w.Done(ri)
		if n > uint64(cfg.Iters) {
			n = uint64(cfg.Iters)
		}
		switch {
		case n < uint64(cfg.Iters):
			out.partialRuns++
			out.waves[wave].Partial++
		case est:
			out.completedRuns++
			out.waves[wave].Est++
		default:
			out.completedRuns++
			out.waves[wave].Exact++
		}
		if est {
			continue
		}
		for i := uint64(0); i < n; i++ {
			d := w.Delta(ri, int(i))
			if d < w.Want || d > w.Want+deltaSlack {
				out.tornDeltas++
			}
		}
	}

	// Tenant attribution oracles: per-guest instruction conservation,
	// no cross-tenant leakage, and uncore-share bounds — they must hold
	// under every lifecycle storm, kills and clone stampedes included.
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

	out.injected = ws.inj.Stats
	out.clones = m.Kern.Stats.Clones
	out.exits = m.Kern.Stats.Exits
	out.kills = m.Kern.Stats.Kills
	out.denials = m.Kern.Resources().SlotDenials
	out.folds = m.Kern.Stats.OverflowFolds
	out.readsCompleted = ws.chk.ReadsCompleted
	for _, t := range m.Kern.Threads() {
		out.rewinds += t.Stats.FixupRewinds
	}
	out.checkerViolations = ws.chk.Count()
	for _, v := range ws.chk.Violations() {
		if v.Kind == invariant.KindLeak {
			out.leaks++
		}
		if len(out.samples) < 8 {
			out.samples = append(out.samples, v)
		}
	}
	if ws.km != nil {
		ws.agg.MustMerge(ws.reg)
	}
	m.Release()
}

// Render writes the soak report: the mix table, the per-wave
// accounting, and violation details when any oracle fired. Output is
// byte-deterministic for a given SoakConfig.
func (r *SoakResult) Render(w io.Writer) {
	fixup := "enabled"
	if r.Cfg.NoFixup {
		fixup = "DISABLED (ablation)"
	}
	reclaim := "enabled"
	if r.Cfg.AblateReclaim {
		reclaim = "DISABLED (ablation)"
	}
	pool := fmt.Sprintf("pool %d", r.Cfg.Pool)
	if r.Cfg.Tenants > 1 {
		pool = fmt.Sprintf("%d tenants x pool %d", r.Cfg.Tenants, r.Cfg.Pool)
	}
	title := fmt.Sprintf("Soak campaign: %d seed(s) x %d mix(es), %s x %d waves x %d reads, %d cores, %d-bit writes, slots %d, fixup %s, reclaim %s",
		r.Cfg.Seeds, len(r.Mixes), pool, r.Cfg.Waves, r.Cfg.Iters,
		r.Cfg.Cores, r.Cfg.WriteWidth, r.Cfg.SlotCapacity, fixup, reclaim)
	t := tabwrite.New(title,
		"mix", "runs", "clones", "exits", "kills", "denials", "degraded",
		"complete", "partial", "rewinds", "folds", "reads",
		"torn", "conserve", "leaks", "violations", "errors")
	for i := range r.Mixes {
		m := &r.Mixes[i]
		t.Row(m.Name, m.Runs, m.Clones, m.Exits, m.Kills, m.Denials,
			m.DegradedRuns, m.CompletedRuns, m.PartialRuns,
			m.Rewinds, m.Folds, m.ReadsCompleted,
			m.TornDeltas, m.BadConservation, m.Leaks, m.CheckerViolations, m.RunErrors)
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

	wa := tabwrite.New("Per-wave accounting (worker runs across all seeds)",
		"mix", "wave", "exact", "estimated", "partial")
	for i := range r.Mixes {
		m := &r.Mixes[i]
		for wv := range m.Waves {
			wa.Row(m.Name, wv, m.Waves[wv].Exact, m.Waves[wv].Est, m.Waves[wv].Partial)
		}
	}
	wa.Render(w)

	if r.TotalViolations() > 0 {
		d := tabwrite.New("Invariant violations (samples)", "mix", "thread", "kind", "detail")
		for i := range r.Mixes {
			m := &r.Mixes[i]
			for _, v := range m.Samples {
				d.Row(m.Name, v.TID, v.Kind, v.Detail)
			}
			if m.TornDeltas > 0 {
				d.Row(m.Name, "-", "torn-delta",
					fmt.Sprintf("%d exact measurement(s) outside [%d,%d]",
						m.TornDeltas, r.Want, r.Want+deltaSlack))
			}
			if m.BadConservation > 0 {
				d.Row(m.Name, "-", "bad-conservation",
					fmt.Sprintf("%d inherited counter(s) diverged from true instruction totals",
						m.BadConservation))
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
