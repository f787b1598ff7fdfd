// Command simbench is the simulator's same-host benchmark. It runs one
// named workload in-process at runner width 1, checks the outputs
// against the golden artifacts, and prints its metrics as one JSON
// object on the last line of standard output.
//
// Usage (from the repository root):
//
//	sh simbench/run.sh --workload apps|chaos|suite --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 runs the same work twice, untraced and then under spans
// and a CPU profile, and prints the per-layer ledger instead. See
// README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median of these.
const setupReps = 5

// minUnits keeps unit_tail_ms defined: it is the highest percentile
// with at least ten units beyond it.
const minUnits = 21

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// goldens is the directory holding the golden artifacts.
	goldens string
	// size scales every workload's inputs; the command line always
	// uses 1, the self-tests shrink it.
	size float64
	// inject, when set, can fail a unit that succeeded, so the
	// self-tests can prove a failing unit is counted.
	inject func(unit int) error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	res, err := measure(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	o := options{goldens: "testdata/golden", size: 1}
	fs.StringVar(&o.workload, "workload", "", "workload: apps, chaos or suite")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal measured seconds; fixes the unit count")
	traceN := fs.Int("trace", 0, "1 prints the per-layer ledger of a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (apps, chaos, suite)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1 (got %d)", o.seconds)
	}
	if *traceN != 0 && *traceN != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1 (got %d)", *traceN)
	}
	o.trace = *traceN == 1
	return o, nil
}

// pass is one execution of a workload's measured units. Times are
// process CPU time (see processCPU); wall is kept for the log line.
type pass struct {
	cpu   time.Duration
	units []time.Duration
	wall  time.Duration
	// failed counts units that returned an error.
	failed int
	counts counts
	// Go heap activity over the pass.
	allocBytes, mallocs, gcs uint64
}

// runUnits executes units 0..n-1 and times each one. sp is nil for an
// untraced pass.
func runUnits(u unitFunc, n int, sp *spans, inject func(int) error, log io.Writer) pass {
	p := pass{counts: counts{}, units: make([]time.Duration, 0, n)}
	var m0, m1 runtime.MemStats
	runtime.GC() // start every pass from a collected heap
	runtime.ReadMemStats(&m0)
	wall, start := time.Now(), processCPU()
	for i := 0; i < n; i++ {
		t0 := processCPU()
		err := u(i, p.counts, sp)
		p.units = append(p.units, processCPU()-t0)
		if err == nil && inject != nil {
			err = inject(i)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(log, "unit %d failed: %v\n", i, err)
		}
	}
	p.cpu = processCPU() - start
	p.wall = time.Since(wall)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcs = uint64(m1.NumGC - m0.NumGC)
	return p
}

// unitCount turns the nominal seconds into a fixed number of whole
// rounds, so every commit measures the same work for a seed.
func unitCount(w *workload, seconds int) int {
	rounds := int(math.Ceil(float64(seconds) / w.roundCost))
	return max(rounds, (minUnits+w.perRound-1)/w.perRound) * w.perRound
}

// measure runs one invocation and returns its result line. Progress
// and diagnostics go to log.
func measure(o options, log io.Writer) (*result, error) {
	w := workloadByName(o.workload)
	want, err := readGoldens(o.goldens, w.goldens)
	if err != nil {
		return nil, err
	}

	var sp *spans
	var setupSpans []*spans
	setupTimes := make([]float64, 0, setupReps)
	var u unitFunc
	for r := 0; r < setupReps; r++ {
		if o.trace {
			sp = newSpans()
			setupSpans = append(setupSpans, sp)
		}
		t0 := processCPU()
		if u, err = w.setup(o, sp); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupTimes = append(setupTimes, (processCPU() - t0).Seconds())
	}

	n := unitCount(w, o.seconds)
	res := &result{Metrics: map[string]metric{}}
	plain := runUnits(u, n, nil, o.inject, log)
	res.Attempted, res.Failed = n, plain.failed
	rssMB := peakRSSMB()
	fmt.Fprintf(log, "%s: seed %d, %d units, cpu %.3f s, wall %.3f s, unit p50 %.3f ms, tail rank %d/%d\n",
		w.name, o.seed, n, plain.cpu.Seconds(), plain.wall.Seconds(),
		ms(median(seconds(plain.units))), tailRank(n), n)

	if o.trace {
		sp = newSpans()
		traced, prof, err := tracedPass(u, n, sp, o.inject, log)
		if err != nil {
			return nil, err
		}
		res.Attempted += n
		res.Failed += traced.failed
		led, err := foldProfile(prof)
		if err != nil {
			return nil, fmt.Errorf("reading the CPU profile: %w", err)
		}
		sp.merge(medianSpans(setupSpans))
		layerMetrics(res.Metrics, plain, traced, led, sp)
		res.Metrics["go.rss_peak_mb"] = metric{rssMB, "MB"}
		led.print(log, traced.wall)
	} else {
		endToEndMetrics(res.Metrics, plain, median(setupTimes))
	}

	for _, g := range w.goldens {
		res.Attempted++
		if err := g.check(want[g.file]); err != nil {
			res.Failed++
			fmt.Fprintf(log, "golden %s: %v\n", g.file, err)
		} else {
			fmt.Fprintf(log, "golden ok: %s\n", g.file)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func endToEndMetrics(out map[string]metric, p pass, setup float64) {
	ts := seconds(p.units)
	out["setup_s"] = metric{setup, "s"}
	out["cpu_s"] = metric{p.cpu.Seconds(), "s"}
	out["unit_p50_ms"] = metric{ms(median(ts)), "ms"}
	out["unit_tail_ms"] = metric{ms(tail(ts)), "ms"}
	out["alloc_mb"] = metric{float64(p.allocBytes) / (1 << 20), "MB"}
}

// layerMetrics fills the per-layer ledger: CPU-profile self shares,
// driver spans, and the exact counts of the untraced pass.
func layerMetrics(out map[string]metric, plain, traced pass, led *ledger, sp *spans) {
	for _, l := range layers {
		out[l.name+".self_pct"] = metric{led.pct(l.name), "%"}
	}
	out["trace.unnamed_pct"] = metric{led.pct(""), "%"}
	out["trace.samples"] = metric{float64(led.total), "count"}
	out["trace.overhead_pct"] = metric{100 * (traced.cpu.Seconds()/plain.cpu.Seconds() - 1), "%"}
	for _, name := range spanNames {
		out[name] = metric{sp.d[name].Seconds(), "s"}
	}
	for _, name := range countNames {
		out[name] = metric{float64(plain.counts[name]), "count"}
	}
	out["go.mallocs"] = metric{float64(plain.mallocs), "count"}
	out["go.gc_cycles"] = metric{float64(plain.gcs), "count"}

	var nsPerStep, mcycPerS float64
	if steps := traced.counts["machine.steps"]; steps > 0 {
		nsPerStep = float64(sp.d["machine.run_s"].Nanoseconds()) / float64(steps)
		mcycPerS = float64(plain.counts["machine.sim_cycles"]) / plain.cpu.Seconds() / 1e6
	}
	out["machine.host_ns_per_step"] = metric{nsPerStep, "ns"}
	out["machine.sim_mcyc_per_s"] = metric{mcycPerS, "Mcyc/s"}
}

// processCPU is the CPU time every thread of the process has used, GC
// workers included. Unlike wall time it leaves out time the host ran
// other guests (steal), which on a shared host moved wall time far
// more than any change to the simulator would.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(s float64) float64 { return s * 1e3 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank is the 1-based rank of the highest order statistic with at
// least ten units beyond it (the minimum when there are fewer).
func tailRank(n int) int { return max(n-10, 1) }

func tail(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[tailRank(len(s))-1]
}
