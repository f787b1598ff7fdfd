// Command limit-experiments runs the complete reproduction — every
// table and figure from DESIGN.md's per-experiment index — and writes
// the results either as plain text (default) or as the Markdown body
// used in EXPERIMENTS.md (-markdown).
//
// A failed section (faulted or deadlocked simulation, or violated
// result oracles) reports its error, dumps the kernel trace tail (when
// available) to stderr and exits 1 after the remaining sections run.
//
// Usage:
//
//	limit-experiments [-scale 1.0] [-markdown] [-parallel N] [-only PREFIX]
//
// -parallel fans each experiment's independent trials out across N
// workers (0, the default, uses GOMAXPROCS; 1 selects the serial
// engine). Trials are self-contained simulations and results land in
// trial-index order, so every table and figure is byte-identical at
// every width.
//
// -only runs just the sections whose title starts with the given
// prefix (case-insensitive): -only T for the tables, -only F7 for the
// hardware enhancements, -only A for the ablations. Sections not
// selected are skipped entirely — their simulations never run. A
// prefix that matches no section, a non-positive or non-finite -scale
// and a negative -parallel are usage errors (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"limitsim/internal/experiments"
	"limitsim/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// renderer is any experiment result that can write itself.
type renderer interface{ Render(io.Writer) }

type renderFunc func(io.Writer)

func (f renderFunc) Render(w io.Writer) { f(w) }

// section is one titled table or figure of the reproduction.
type section struct {
	title string
	run   func(experiments.Scale) (renderer, error)
}

func sec[R renderer](title string, run func(experiments.Scale) (R, error)) section {
	return section{title, func(s experiments.Scale) (renderer, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// sections lists the reproduction in output order. F3, F4 and F6
// render one shared set of case-study runs, made on first use so
// selections that skip all three never pay for them.
func sections() []section {
	var once sync.Once
	var cs *experiments.CaseStudyResult
	var csErr error
	caseStudy := func(fig func(*experiments.CaseStudyResult, io.Writer)) func(experiments.Scale) (renderer, error) {
		return func(s experiments.Scale) (renderer, error) {
			once.Do(func() { cs, csErr = experiments.RunCaseStudies(s) })
			if csErr != nil {
				return nil, csErr
			}
			return renderFunc(func(w io.Writer) { fig(cs, w) }), nil
		}
	}
	return []section{
		sec("T1 — Access-method cost", experiments.RunTable1),
		sec("T2 — Read-sequence breakdown", experiments.RunTable2),
		sec("T3 — Context-switch cost", experiments.RunTable3),
		sec("S1 — Self-measurement (LiMiT measuring LiMiT)", experiments.RunSelfMeasure),
		sec("F1 — Measurement self-perturbation", experiments.RunFig1),
		sec("F2 — Slowdown vs instrumentation density", experiments.RunFig2),
		sec("F3 — Critical-section length distributions", caseStudy((*experiments.CaseStudyResult).RenderFig3)),
		sec("F4 — Cycle decomposition", caseStudy((*experiments.CaseStudyResult).RenderFig4)),
		sec("F6 — Kernel vs user cycles", caseStudy((*experiments.CaseStudyResult).RenderFig6)),
		sec("F5 — MySQL longitudinal", experiments.RunFig5),
		sec("T4 — Sampling vs precise attribution", experiments.RunTable4),
		sec("T5 — Counter multiplexing estimation error", experiments.RunTable5),
		sec("F7 — Hardware-counter enhancements", experiments.RunFig7),
		sec("F8 — Bottleneck identification (multi-event)", experiments.RunFig8),
		sec("F9 — Consolidation interference", experiments.RunFig9),
		sec("A1 — Overflow folding mechanism", experiments.RunAblationOverflow),
		sec("A2 — Quantum vs PC-rewind rate", experiments.RunAblationQuantum),
		sec("A3 — Mutex spin budget", experiments.RunAblationSpins),
		sec("A4 — Scheduler placement policy", experiments.RunAblationScheduler),
		sec("M1 — Multi-tenant attribution under the double context switch", experiments.RunM1),
		sec("M2 — Multiplexed-estimate error vs exact LiMiT reads", experiments.RunM2),
	}
}

// exec runs one section and renders it, reporting a result whose
// Clean method returns false as a failure after it renders.
func (s section) exec(scale experiments.Scale, w io.Writer) error {
	r, err := s.run(scale)
	if err != nil {
		return err
	}
	r.Render(w)
	if c, ok := r.(interface{ Clean() bool }); ok && !c.Clean() {
		return errors.New("result oracles reported violations")
	}
	return nil
}

// run is the CLI body; split from main so the tests run it in-process
// and compare stdout with the recorded golden.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limit-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "experiment scale factor")
	markdown := fs.Bool("markdown", false, "emit Markdown section wrappers")
	parallel := fs.Int("parallel", 0, "worker count trials fan out across (0 = GOMAXPROCS, 1 = serial); output is byte-identical at every width")
	only := fs.String("only", "", "run only sections whose title starts with this prefix (case-insensitive)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limit-experiments: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) || *parallel < 0 {
		fmt.Fprintf(stderr, "limit-experiments: want -scale > 0 and finite, -parallel >= 0; got %v, %d\n", *scale, *parallel)
		return 2
	}

	all := sections()
	var selected []section
	for _, s := range all {
		if strings.HasPrefix(strings.ToLower(s.title), strings.ToLower(*only)) {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		ids := make([]string, len(all))
		for i, s := range all {
			ids[i], _, _ = strings.Cut(s.title, " ")
		}
		fmt.Fprintf(stderr, "limit-experiments: -only %q matches no section\navailable sections: %s\n",
			*only, strings.Join(ids, ", "))
		return 2
	}

	experiments.SetParallel(*parallel)
	s := experiments.Scale(*scale)
	failed := 0
	for _, sc := range selected {
		if *markdown {
			fmt.Fprintf(stdout, "### %s\n\n```text\n", sc.title)
		} else {
			fmt.Fprintf(stdout, "%s\n%s\n\n", sc.title, strings.Repeat("#", len(sc.title)))
		}
		if err := sc.exec(s, stdout); err != nil {
			failed++
			fmt.Fprintf(stdout, "(experiment failed: %v)\n", err)
			fmt.Fprintf(stderr, "limit-experiments: %s: %v\n", sc.title, err)
			var fe *machine.FaultError
			if errors.As(err, &fe) {
				fmt.Fprintln(stderr, "kernel trace tail:")
				fe.DumpTrace(stderr, 40)
			}
		}
		if *markdown {
			fmt.Fprintf(stdout, "```\n\n")
		}
	}

	if failed > 0 {
		fmt.Fprintf(stderr, "limit-experiments: %d section(s) failed\n", failed)
		return 1
	}
	return 0
}
