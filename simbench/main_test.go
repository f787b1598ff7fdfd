package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const goldenDir = "../testdata/golden"

// tiny runs a workload at a fiftieth of its size; the golden checks
// still run at full size.
func tiny(t *testing.T, o options) *result {
	t.Helper()
	if o.goldens == "" {
		o.goldens = goldenDir
	}
	o.seconds, o.size = 1, 0.02
	res, err := measure(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return res
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeAndNames runs every workload tiny in both modes, and checks
// it passes and prints exactly the metrics BENCHMARK.json declares.
func TestSmokeAndNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range allWorkloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, driver has %v", names, have)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, mode := range []struct {
		trace bool
		want  map[string]string
	}{{false, map[string]string{}}, {true, map[string]string{}}} {
		decl := spec.EndToEnd
		if mode.trace {
			decl = spec.PerLayer
		}
		for _, m := range decl {
			mode.want[m.Name] = m.Unit
		}
		for _, w := range names {
			res := tiny(t, options{workload: w, seed: 3, trace: mode.trace})
			if !res.Correct || res.Failed != 0 || res.Attempted < minUnits {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, mode.trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !valid.MatchString(name) || len(name) > 64 {
					t.Errorf("%s: invalid metric name %q", w, name)
				}
				if unit, ok := mode.want[name]; !ok {
					t.Errorf("%s trace=%v prints %q, which BENCHMARK.json does not declare", w, mode.trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, name, m.Unit, unit)
				}
			}
			for name := range mode.want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v does not print %q", w, mode.trace, name)
				}
			}
		}
	}
}

// simCounts returns the metrics the simulator itself counts.
func simCounts(res *result) map[string]float64 {
	out := map[string]float64{}
	for _, name := range countNames {
		out[name] = res.Metrics[name].Value
	}
	return out
}

// TestCountsFollowSeed shows the seed reaches the inputs: the counts
// repeat exactly for one seed and change with another.
func TestCountsFollowSeed(t *testing.T) {
	for _, w := range []string{"apps", "chaos"} {
		a := simCounts(tiny(t, options{workload: w, seed: 7, trace: true}))
		b := simCounts(tiny(t, options{workload: w, seed: 7, trace: true}))
		c := simCounts(tiny(t, options{workload: w, seed: 8, trace: true}))
		differs := false
		for name, v := range a {
			if b[name] != v {
				t.Errorf("%s: %s is %v then %v for the same seed", w, name, v, b[name])
			}
			differs = differs || c[name] != v
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give identical counts %v", w, a)
		}
	}
	// The experiment runners take no seed; the seed orders the sections.
	if fmt.Sprint(suiteOrder(7, 0)) == fmt.Sprint(suiteOrder(8, 0)) {
		t.Errorf("suite order ignores the seed: %v", suiteOrder(7, 0))
	}
}

// TestFailuresCounted proves a corrupted golden byte and a failing
// unit each raise the failed-operation count.
func TestFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	b, err := os.ReadFile(filepath.Join(goldenDir, "frames-apache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(filepath.Join(dir, "frames-apache.jsonl"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	res := tiny(t, options{workload: "apps", seed: 1, goldens: dir})
	if res.Failed != 1 || res.Correct {
		t.Errorf("corrupted golden: failed=%d correct=%v, want 1 failure", res.Failed, res.Correct)
	}

	fail := func(i int) error {
		if i == 4 {
			return errors.New("injected unit error")
		}
		return nil
	}
	res = tiny(t, options{workload: "apps", seed: 1, inject: fail})
	if res.Failed != 1 || res.Correct {
		t.Errorf("injected unit error: failed=%d correct=%v, want 1 failure", res.Failed, res.Correct)
	}
}

func TestMissingGoldensIsAnError(t *testing.T) {
	o := options{workload: "suite", seconds: 1, size: 0.02, goldens: t.TempDir()}
	if _, err := measure(o, io.Discard); err == nil {
		t.Fatal("measure ran without its goldens")
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs(strings.Fields("--workload chaos --seed 9 --seconds 3 --trace 1"))
	if err != nil || o.workload != "chaos" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Fatalf("parseArgs = %+v, %v", o, err)
	}
	for _, bad := range []string{
		"--workload nope", "--workload apps --trace 2", "--workload apps --seconds 0", "--workload apps extra",
	} {
		if _, err := parseArgs(strings.Fields(bad)); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"limitsim/internal/cpu.(*Core).StepInto":           "limitsim/internal/cpu",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKey":          "internal/runtime/maps",
		"limitsim/internal/runner.Map[go.shape.struct {}]": "limitsim/internal/runner",
		"limitsim/internal/chaos.Run.func1":                "limitsim/internal/chaos",
		"aeshashbody":                                      "aeshashbody",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	if got := tail(xs); got != 20 {
		t.Errorf("tail of 1..30 = %v, want 20 (ten values beyond it)", got)
	}
	if got := median(xs); got != 15.5 {
		t.Errorf("median of 1..30 = %v, want 15.5", got)
	}
}
