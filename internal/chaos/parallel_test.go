package chaos

import (
	"errors"
	"strings"
	"testing"

	"limitsim/internal/runner"
)

// renderCampaign runs a small but non-trivial campaign at the given
// pool width and returns the full rendered report, telemetry included.
func renderCampaign(t *testing.T, parallel int) string {
	t.Helper()
	res := Run(Config{
		Seeds:    3,
		Threads:  4,
		Iters:    120,
		Metrics:  true,
		Parallel: parallel,
	})
	var sb strings.Builder
	res.Render(&sb)
	return sb.String()
}

// TestCampaignParallelDeterminism is the engine's core contract: the
// campaign report — mix table, violation details, run errors and the
// merged telemetry block — must be byte-identical at every pool width,
// because outcomes land in (mix, seed)-keyed slots and fold in key
// order regardless of completion order. Run under -race this also
// vets the worker pool for data races.
func TestCampaignParallelDeterminism(t *testing.T) {
	serial := renderCampaign(t, 1)
	for _, par := range []int{2, 4, 8} {
		if got := renderCampaign(t, par); got != serial {
			t.Errorf("parallel=%d report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				par, serial, got)
		}
	}
}

// TestCampaignParallelDeterminismNoFixup repeats the byte-equality
// check on the ablated campaign, where runs actually report torn reads
// — the violation-sample section must also assemble identically.
func TestCampaignParallelDeterminismNoFixup(t *testing.T) {
	render := func(parallel int) string {
		res := Run(Config{
			Seeds:    2,
			Threads:  4,
			Iters:    120,
			NoFixup:  true,
			Parallel: parallel,
			Mixes: []Mix{
				{Name: "pmi-storm", Inject: DefaultMixes()[2].Inject},
			},
		})
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	serial := render(1)
	if render(4) != serial {
		t.Error("ablated campaign report differs between serial and parallel=4")
	}
	if !strings.Contains(serial, "torn") {
		t.Error("ablated campaign rendered no torn-read evidence")
	}
}

// TestSoakParallelDeterminism is the same contract for the lifecycle
// engine: seeds fan out within each mix, yet the soak report (wave
// accounting and telemetry included) must match the serial engine
// byte for byte.
func TestSoakParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		res := RunSoak(SoakConfig{
			Seeds:    2,
			Waves:    3,
			Iters:    30,
			Metrics:  true,
			Parallel: parallel,
		})
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	serial := render(1)
	for _, par := range []int{2, 4} {
		if got := render(par); got != serial {
			t.Errorf("soak parallel=%d report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				par, serial, got)
		}
	}
}

// TestCampaignWorkerReuseClean pins the pooling contract directly: one
// worker running the same seed twice in a row (with arbitrary runs in
// between) must produce identical outcomes — Restore/Reset leave no
// residue.
func TestCampaignWorkerReuseClean(t *testing.T) {
	cfg := Config{Seeds: 1, Threads: 4, Iters: 120}.withDefaults()
	ws := newCampaignWorker(cfg)
	mix := DefaultMixes()[4] // full-mix: exercises every injector path

	var first, again runOutcome
	runOne(cfg, mix, RunSeed(4, 0), ws, &first)
	var noise runOutcome
	runOne(cfg, DefaultMixes()[2], RunSeed(2, 7), ws, &noise)
	runOne(cfg, mix, RunSeed(4, 0), ws, &again)

	var a, b MixResult
	first.foldInto(&a)
	again.foldInto(&b)
	if a.Injected != b.Injected || a.Folds != b.Folds || a.Rewinds != b.Rewinds ||
		a.ReadsCompleted != b.ReadsCompleted || a.TornDeltas != b.TornDeltas ||
		a.CheckerViolations != b.CheckerViolations || a.RunErrors != b.RunErrors {
		t.Errorf("worker reuse changed a run's outcome:\nfirst: %+v\nagain: %+v", a, b)
	}
}

// TestPanickingJobFailsCampaign injects a panic into two jobs of a
// campaign and of a soak. At every pool width the result must carry
// the lowest-keyed panic and fail its verdict with it, naming the job,
// instead of rendering clean with empty slots.
func TestPanickingJobFailsCampaign(t *testing.T) {
	origRun, origSoak := runJob, runSoakJob
	defer func() { runJob, runSoakJob = origRun, origSoak }()
	// Campaign keys are mix-major over 2 seeds, so (1,1) is job 3 and
	// (3,0) is job 6; soak keys restart per mix.
	faulty := func(seed uint64) bool { return seed == RunSeed(1, 1) || seed == RunSeed(3, 0) }
	runJob = func(cfg Config, mix Mix, seed uint64, ws *campaignWorker, out *runOutcome) {
		if faulty(seed) {
			panic("injected")
		}
		runOne(cfg, mix, seed, ws, out)
	}
	runSoakJob = func(cfg SoakConfig, mix SoakMix, seed uint64, ws *soakWorker, out *soakOutcome) {
		if faulty(seed) {
			panic("injected")
		}
		runOneSoak(cfg, mix, seed, ws, out)
	}
	soak := quickSoakCfg()
	for _, par := range []int{1, 4} {
		err := Run(Config{Seeds: 2, Threads: 2, Iters: 40, Parallel: par}).Verdict()
		var pe *runner.PanicError
		if !errors.As(err, &pe) || pe.Job != 3 || !strings.Contains(err.Error(), "job 3 panicked: injected") {
			t.Errorf("parallel=%d: campaign verdict %v, want job 3's panic", par, err)
		}
		soak.Parallel = par
		err = RunSoak(soak).Verdict()
		want := "soak mix " + soak.Mixes[1].Name + ": runner: job 1 panicked: injected"
		if !errors.As(err, &pe) || err.Error() != want {
			t.Errorf("parallel=%d: soak verdict %v, want %q", par, err, want)
		}
	}
}
