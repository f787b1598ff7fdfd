// Command limit-fleet shards a campaign across supervised worker
// processes and proves the sharding invisible: the assembled report is
// byte-identical to the single-process engine's, at any worker count,
// even while workers crash, hang, or tear their result frames.
//
// Usage:
//
//	limit-fleet [-space campaign|soak|f2] [-workers 4] [flags...]
//	limit-fleet -worker            (internal: run as a fleet worker)
//
// The coordinator spawns N copies of this binary with -worker, speaks
// length-prefixed versioned JSON frames with each over stdin/stdout,
// and supervises them: heartbeat silence kills a hung worker, a slow
// worker's job is speculatively retried elsewhere (the duplicate result
// is deduplicated by key and byte-compared), failed jobs retry with
// seeded exponential backoff, and a job that exhausts its attempts is
// quarantined — enumerated in the summary, never silently dropped.
// When no workers can be spawned at all, the coordinator degrades to
// in-process execution (-workers 0 selects that path directly).
//
// -chaos-workers turns the fleet's own fault injection on: workers
// deterministically SIGKILL themselves mid-job, stall with heartbeats
// suppressed, truncate result frames, and run slow, all confined to
// the first attempts so a bounded retry budget still completes every
// job. The run must then pass the same oracles as a clean one: every
// job accounted exactly once, merged counters conserved, and the
// report byte-identical to the unsharded engine's.
//
// The campaign report goes to stdout (or -report FILE; a FILE ending
// in .html writes the self-contained HTML artifact instead — the
// assembled report plus merged telemetry, byte-identical at any shard
// width because supervision stats stay out of it); the fleet
// supervision summary goes to stderr. Exit status: 0 on a clean,
// complete, audit-passing run (with the same verdict discipline as
// limit-chaos for campaign/soak spaces); 1 on quarantined jobs, audit
// violations, or a failed verdict; 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"limitsim/internal/chaos"
	"limitsim/internal/experiments"
	"limitsim/internal/fleet"
	"limitsim/internal/fleet/spaces"
	"limitsim/internal/report"
	"limitsim/internal/telemetry"
)

func main() {
	worker := flag.Bool("worker", false, "run as a fleet worker process (internal)")
	space := flag.String("space", "campaign", "job space to shard: campaign, soak, or f2")
	workers := flag.Int("workers", 4, "worker process count (0 = run in-process)")
	report := flag.String("report", "", "write the campaign report to FILE instead of stdout")

	// Campaign / soak config, mirroring limit-chaos.
	seeds := flag.Int("seeds", 0, "seeds per fault mix (default 32, soak 8)")
	threads := flag.Int("threads", 6, "workload threads (campaign space)")
	cores := flag.Int("cores", 4, "machine cores")
	iters := flag.Int("iters", 0, "reads per thread (default 400, soak 40 per worker)")
	k := flag.Int("k", 0, "compute instructions per measured region (default 25, soak 20)")
	width := flag.Int("width", 0, "PMU writable counter width in bits (default 12, soak 10)")
	pool := flag.Int("pool", 4, "soak worker-pool width")
	waves := flag.Int("waves", 6, "soak clone/join waves per run")
	capacity := flag.Int("capacity", 0, "soak pinned-slot ledger capacity (default 2*(pool+1)+4)")
	nofixup := flag.Bool("nofixup", false, "disable fixup-region registration (ablation)")
	ablateReclaim := flag.Bool("ablate-reclaim", false, "disable exit-time reclamation (soak ablation)")
	metrics := flag.Bool("metrics", false, "attach kernel telemetry to every run")
	scale := flag.Float64("scale", float64(experiments.Quick), "f2 sweep scale (1.0 = paper scale)")

	// Supervision.
	maxAttempts := flag.Int("max-attempts", 5, "dispatches per job before quarantine")
	fleetSeed := flag.Uint64("fleet-seed", 1, "seed for retry jitter and worker self-chaos")
	chaosWorkers := flag.Bool("chaos-workers", false, "self-chaos: crash/stall/truncate/slow workers on early attempts")
	hbEvery := flag.Duration("hb-every", 100*time.Millisecond, "worker heartbeat period")
	hbTimeout := flag.Duration("hb-timeout", 2*time.Second, "heartbeat silence before a busy worker is killed as hung")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job deadline before speculative retry")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "limit-fleet: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if f := negativeFlag(); f != nil {
		fmt.Fprintf(os.Stderr, "limit-fleet: -%s must not be negative (got %s)\n", f.Name, f.Value)
		os.Exit(2)
	}

	if *worker {
		runWorker()
		return
	}

	cfg := fleet.Config{
		Workers:          *workers,
		MaxAttempts:      *maxAttempts,
		Seed:             *fleetSeed,
		HeartbeatEvery:   *hbEvery,
		HeartbeatTimeout: *hbTimeout,
		JobTimeout:       *jobTimeout,
	}
	if *chaosWorkers {
		cfg.Chaos = fleet.KillStorm(*fleetSeed)
	}

	// -report FILE.html selects the self-contained HTML artifact; any
	// other -report value (or none) keeps the plain text report.
	html := *report != "" && strings.HasSuffix(*report, ".html")
	out := io.Writer(os.Stdout)
	if *report != "" && !html {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "limit-fleet: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	spawn := fleet.ProcSpawner(selfPath(), "-worker")

	switch *space {
	case "campaign":
		if *ablateReclaim {
			fmt.Fprintln(os.Stderr, "limit-fleet: -ablate-reclaim requires -space soak")
			os.Exit(2)
		}
		ccfg := chaos.Config{
			Seeds: defInt(*seeds, 32), Threads: *threads, Cores: *cores,
			Iters: *iters, ComputeK: *k, WriteWidth: *width,
			NoFixup: *nofixup, Metrics: *metrics,
		}
		spec, err := spaces.CampaignSpec(ccfg)
		check(err)
		rep := runFleet(cfg, spec, spawn)
		res, err := chaos.AssembleCampaign(ccfg, rep.Payloads)
		check(err)
		if html {
			writeHTMLReport(*report, "campaign", len(rep.Payloads), res.Render, res.Telemetry)
		} else {
			res.Render(out)
		}
		check(res.Verdict())
	case "soak":
		scfg := chaos.SoakConfig{
			Seeds: defInt(*seeds, 8), Pool: *pool, Waves: *waves,
			Iters: *iters, ComputeK: *k, Cores: *cores, WriteWidth: *width,
			SlotCapacity: *capacity, NoFixup: *nofixup,
			AblateReclaim: *ablateReclaim, Metrics: *metrics,
		}
		spec, err := spaces.SoakSpec(scfg)
		check(err)
		rep := runFleet(cfg, spec, spawn)
		res, err := chaos.AssembleSoak(scfg, rep.Payloads)
		check(err)
		if html {
			writeHTMLReport(*report, "soak", len(rep.Payloads), res.Render, res.Telemetry)
		} else {
			res.Render(out)
		}
		check(res.Verdict())
	case "f2":
		spec, err := spaces.F2Spec(experiments.Scale(*scale))
		check(err)
		rep := runFleet(cfg, spec, spawn)
		res, err := experiments.AssembleF2Payloads(rep.Payloads)
		check(err)
		if html {
			writeHTMLReport(*report, "f2", len(rep.Payloads), res.Render, nil)
		} else {
			res.Render(out)
		}
	default:
		fmt.Fprintf(os.Stderr, "limit-fleet: unknown space %q (campaign, soak, f2)\n", *space)
		os.Exit(2)
	}
}

// writeHTMLReport renders the assembled result as one self-contained
// HTML artifact: the byte-deterministic assembled report plus the
// merged telemetry registry when the run carried one. Fleet
// supervision stats are deliberately absent — they vary with worker
// count and timing, and the artifact must be byte-identical at any
// shard width (they still go to stderr via RenderSummary).
func writeHTMLReport(path, space string, jobs int, render func(io.Writer), reg *telemetry.Registry) {
	a := report.New(
		fmt.Sprintf("limit-fleet %s report", space),
		fmt.Sprintf("%d jobs merged with commutative rules — identical at any shard width", jobs))
	var sb strings.Builder
	render(&sb)
	a.AddPre("Assembled report", sb.String())
	if reg != nil {
		a.AddRegistry("Merged telemetry", reg)
	}
	f, err := os.Create(path)
	check(err)
	werr := a.Render(f)
	cerr := f.Close()
	if werr != nil {
		check(werr)
	}
	check(cerr)
}

// runWorker is the -worker entry point: serve frames over stdin/stdout
// until shutdown. A self-chaos kill exits 137 — the same code a real
// SIGKILL would report — so the coordinator-side view is identical.
func runWorker() {
	err := fleet.WorkerMain(os.Stdin, os.Stdout)
	switch {
	case err == nil:
		return
	case err == fleet.ErrChaosKill:
		os.Exit(137)
	default:
		fmt.Fprintf(os.Stderr, "limit-fleet worker: %v\n", err)
		os.Exit(1)
	}
}

// runFleet executes the fleet and enforces its own oracles before any
// space-level verdict: the run must be complete (nothing quarantined)
// and the accounting audit must be clean.
func runFleet(cfg fleet.Config, spec fleet.SpaceSpec, spawn fleet.Spawner) *fleet.Report {
	rep, err := fleet.Run(cfg, spec, spawn)
	check(err)
	rep.RenderSummary(os.Stderr)
	if !rep.Complete() {
		fmt.Fprintf(os.Stderr, "limit-fleet: run incomplete: %d job(s) quarantined, %d audit violation(s)\n",
			len(rep.Quarantined), len(rep.Violations))
		os.Exit(1)
	}
	return rep
}

func selfPath() string {
	p, err := os.Executable()
	if err != nil {
		// Fall back to argv[0]; ProcSpawner's spawn errors then count
		// against the budget and the coordinator degrades in-process.
		return os.Args[0]
	}
	return p
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// negativeFlag returns the first int flag set to a negative value, or
// nil; zero keeps its "use the default" meaning.
func negativeFlag() (bad *flag.Flag) {
	flag.Visit(func(f *flag.Flag) {
		neg := false
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && bad == nil {
			bad = f
		}
	})
	return bad
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "limit-fleet: %v\n", err)
		os.Exit(1)
	}
}
