// Command limit-chaos runs seeded fault-injection campaigns against
// the LiMiT read path: N seeds × a fault-mix matrix (forced preemption
// inside read-critical regions, spurious/delayed/coalesced overflow
// interrupts, migration storms, signal delays, TLB+cache flush storms)
// on a PMU with narrowed writable counters, with the invariant checker
// attached to every run.
//
// Usage:
//
//	limit-chaos [-seeds 32] [-threads 4] [-cores 4] [-iters 400]
//	            [-k 25] [-width 12] [-tenants N] [-mix NAME]
//	            [-nofixup] [-metrics] [-parallel N]
//	limit-chaos -soak [-seeds 8] [-pool 4] [-waves 6] [-iters 40]
//	            [-k 20] [-cores 4] [-width 10] [-capacity N]
//	            [-tenants N] [-mix NAME]
//	            [-nofixup] [-ablate-reclaim] [-metrics] [-parallel N]
//
// -tenants N (N > 1) activates the kernel's guest-scheduler layer: the
// workload's threads are dealt across N tenant VMs that time-share the
// cores under a second scheduling level, every run carries a shared
// socket uncore counter block, the fault matrix switches to the
// vCPU-preemption mixes, and the per-tenant attribution oracles
// (conservation, no cross-tenant leakage, uncore share bounds) run
// after every run. The report gains a tenant-layer table quantifying
// double context switches and the share-by-cycles attribution error.
//
// -mix NAME restricts the campaign to the single named fault mix; an
// unknown name prints the available mixes and exits 2.
//
// -parallel fans independent runs out across N workers (0, the
// default, uses GOMAXPROCS; 1 selects the serial engine). Runs are
// self-contained simulations whose outcomes merge in (mix, seed) key
// order, so the report is byte-identical at every width.
//
// -metrics attaches the kernel telemetry layer to every run and
// appends the campaign-wide merged metrics block (context-switch and
// PMI-latency histograms, rewind/fold/denial counters) to the report;
// like the rest of the report it is byte-deterministic for a given
// configuration.
//
// With the fixup patch active (the default) a campaign must finish
// with zero invariant violations — that is the paper's atomicity claim
// under adversarial schedules, and the process exits nonzero if it
// breaks. With -nofixup the same campaign must *detect* torn reads:
// the process exits nonzero if the sabotaged configuration somehow
// reports none (a dead checker is as bad as a torn read).
//
// Zero keeps its "use the default" meaning on every numeric flag; a
// negative value is a usage error (exit 2), rejected before anything
// runs. A job that panics fails the campaign: the process names the
// lowest-keyed failing job and exits 1.
//
// -soak switches to the lifecycle soak campaign: a churning
// thread-pool workload (a manager cloning and joining waves of
// short-lived workers) under kill storms, clone storms and pinned-slot
// exhaustion, audited for leak-freedom, inheritance conservation and
// exact-or-flagged measurements. -ablate-reclaim disables exit-time
// resource reclamation and, symmetrically with -nofixup, the process
// exits nonzero unless the campaign *detects* the resulting leaks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"limitsim/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is what both campaign kinds report.
type result interface {
	Render(io.Writer)
	Verdict() error
}

// run parses args, runs the read-path campaign or the soak, and
// returns the process exit code: 0 when the verdict holds, 1 when it
// fails or the report cannot be written, 2 for usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limit-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	soak := fs.Bool("soak", false, "run the thread-lifecycle soak campaign instead of the read-path campaign")
	seeds := fs.Int("seeds", 0, "seeds per fault mix (default 32, soak 8)")
	threads := fs.Int("threads", 6, "workload threads (read-path campaign)")
	cores := fs.Int("cores", 4, "machine cores")
	iters := fs.Int("iters", 0, "reads per thread (default 400, soak 40 per worker)")
	k := fs.Int("k", 0, "compute instructions per measured region (default 25, soak 20)")
	width := fs.Int("width", 0, "PMU writable counter width in bits (default 12, soak 10; narrow = frequent folds)")
	pool := fs.Int("pool", 4, "soak worker-pool width")
	waves := fs.Int("waves", 6, "soak clone/join waves per run")
	capacity := fs.Int("capacity", 0, "soak pinned-slot ledger capacity (default 2*(pool+1)+4)")
	tenants := fs.Int("tenants", 0, "guest-VM count; >1 time-shares the cores between tenant VMs under the two-level scheduler")
	mixName := fs.String("mix", "", "run only the named fault mix (an unknown name lists the available mixes and exits 2)")
	nofixup := fs.Bool("nofixup", false, "disable fixup-region registration (ablation: torn reads expected)")
	ablateReclaim := fs.Bool("ablate-reclaim", false, "disable exit-time resource reclamation (soak ablation: leaks expected)")
	metrics := fs.Bool("metrics", false, "attach kernel telemetry to every run and append the merged metrics block")
	parallel := fs.Int("parallel", 0, "worker count runs fan out across (0 = GOMAXPROCS, 1 = serial); the report is byte-identical at every width")
	report := fs.String("report", "", "write the campaign report to FILE instead of stdout (verdict lines stay on stdout/stderr)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limit-chaos: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if f := negativeFlag(fs); f != nil {
		fmt.Fprintf(stderr, "limit-chaos: -%s must not be negative (got %s)\n", f.Name, f.Value)
		return 2
	}

	// simulate runs the selected campaign and returns it with the line
	// that reports a verdict that held.
	var simulate func() (result, string)
	if *soak {
		cfg := chaos.SoakConfig{
			Seeds:         *seeds,
			Pool:          *pool,
			Waves:         *waves,
			Iters:         *iters,
			ComputeK:      *k,
			Cores:         *cores,
			WriteWidth:    *width,
			SlotCapacity:  *capacity,
			NoFixup:       *nofixup,
			AblateReclaim: *ablateReclaim,
			Metrics:       *metrics,
			Parallel:      *parallel,
			Tenants:       *tenants,
		}
		if cfg.Seeds == 0 {
			cfg.Seeds = 8
		}
		if *mixName != "" {
			m, ok := pick(stderr, *mixName, chaos.SoakMixes(*pool, *tenants), func(m chaos.SoakMix) string { return m.Name })
			if !ok {
				return 2
			}
			cfg.Mixes = []chaos.SoakMix{m}
		}
		simulate = func() (result, string) {
			res := chaos.RunSoak(cfg)
			if cfg.NoFixup || cfg.AblateReclaim {
				return res, fmt.Sprintf("detected %d violation(s) under ablation, as expected", res.TotalViolations())
			}
			return res, fmt.Sprintf("soak clean: churn, kills, clone storms and exhaustion absorbed (%d run(s) degraded gracefully)",
				res.TotalDegraded())
		}
	} else {
		if *ablateReclaim {
			fmt.Fprintln(stderr, "limit-chaos: -ablate-reclaim requires -soak")
			return 2
		}
		cfg := chaos.Config{
			Seeds:      *seeds,
			Threads:    *threads,
			Cores:      *cores,
			Iters:      *iters,
			ComputeK:   *k,
			WriteWidth: *width,
			NoFixup:    *nofixup,
			Metrics:    *metrics,
			Parallel:   *parallel,
			Tenants:    *tenants,
		}
		if cfg.Seeds == 0 {
			cfg.Seeds = 32
		}
		if *mixName != "" {
			matrix := chaos.DefaultMixes()
			if *tenants > 1 {
				matrix = chaos.TenantMixes()
			}
			m, ok := pick(stderr, *mixName, matrix, func(m chaos.Mix) string { return m.Name })
			if !ok {
				return 2
			}
			cfg.Mixes = []chaos.Mix{m}
		}
		simulate = func() (result, string) {
			res := chaos.Run(cfg)
			if cfg.NoFixup {
				return res, fmt.Sprintf("detected %d torn-read/invariant violation(s) with fixup disabled, as expected", res.TotalViolations())
			}
			return res, "all invariants held under the full fault mix"
		}
	}

	out := stdout
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(stderr, "limit-chaos: %v\n", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	res, held := simulate()
	res.Render(out)
	if err := res.Verdict(); err != nil {
		fmt.Fprintf(stderr, "limit-chaos: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, held)
	return 0
}

// negativeFlag returns the first int flag set to a negative value, or
// nil.
func negativeFlag(fs *flag.FlagSet) (bad *flag.Flag) {
	fs.Visit(func(f *flag.Flag) {
		if v, ok := f.Value.(flag.Getter).Get().(int); ok && v < 0 && bad == nil {
			bad = f
		}
	})
	return bad
}

// pick returns the mix called name. An unknown name lists the
// available mixes on stderr, matching the unknown-subcommand contract
// elsewhere in the toolchain, and reports false.
func pick[M any](stderr io.Writer, name string, matrix []M, nameOf func(M) string) (M, bool) {
	for _, m := range matrix {
		if nameOf(m) == name {
			return m, true
		}
	}
	fmt.Fprintf(stderr, "limit-chaos: unknown mix %q; available mixes:\n", name)
	for _, m := range matrix {
		fmt.Fprintf(stderr, "  %s\n", nameOf(m))
	}
	var none M
	return none, false
}
