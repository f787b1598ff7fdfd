package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"limitsim/internal/trace"
)

// traceArgs is a small deterministic workload for the subcommand
// tests: forkjoin finishes in a few hundred thousand cycles, and the
// sampling method raises real PMIs.
var traceArgs = []string{"-app", "forkjoin", "-method", "sample", "-scale", "0.3", "-period", "20000"}

func run(t *testing.T, f func(args []string, stdout, stderr io.Writer) int, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := f(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	return out.String()
}

func TestTraceGoldenDeterminism(t *testing.T) {
	for _, format := range []string{"text", "chrome", "jsonl"} {
		args := append(append([]string{}, traceArgs...), "-format", format)
		a := run(t, runTrace, args...)
		b := run(t, runTrace, args...)
		if a != b {
			t.Errorf("format=%s: two same-seed runs differ", format)
		}
		if a == "" {
			t.Errorf("format=%s: empty output", format)
		}
	}
}

func TestTraceChromeRoundTrip(t *testing.T) {
	chromeOut := run(t, runTrace, append(append([]string{}, traceArgs...), "-format", "chrome")...)
	jsonlOut := run(t, runTrace, append(append([]string{}, traceArgs...), "-format", "jsonl")...)

	// The chrome document must be independently valid JSON.
	var doc map[string]any
	if err := json.Unmarshal([]byte(chromeOut), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}

	fromChrome, err := trace.ParseChrome(strings.NewReader(chromeOut))
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := trace.ParseJSONL(strings.NewReader(jsonlOut))
	if err != nil {
		t.Fatal(err)
	}
	// Both exports encode the same deterministic run, so they must
	// parse back to the identical event sequence.
	if len(fromChrome) == 0 || len(fromChrome) != len(fromJSONL) {
		t.Fatalf("chrome %d events, jsonl %d", len(fromChrome), len(fromJSONL))
	}
	for i := range fromChrome {
		if fromChrome[i] != fromJSONL[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, fromChrome[i], fromJSONL[i])
		}
	}

	// A real run's trace must show scheduling, syscall and PMI events.
	seen := map[trace.Kind]bool{}
	for _, e := range fromChrome {
		seen[e.Kind] = true
	}
	for _, k := range []trace.Kind{trace.SwitchIn, trace.SwitchOut, trace.Syscall, trace.PMI} {
		if !seen[k] {
			t.Errorf("trace lacks %v events", k)
		}
	}
}

func TestStatsDeterminism(t *testing.T) {
	for _, format := range []string{"text", "jsonl"} {
		args := []string{"-app", "forkjoin", "-scale", "0.3", "-format", format}
		a := run(t, runStats, args...)
		b := run(t, runStats, args...)
		if a != b {
			t.Errorf("format=%s: two same-seed stats runs differ", format)
		}
		for _, want := range []string{"kern.syscalls", "kern.switch.out.cycles", "limit.reads.exact"} {
			if !strings.Contains(a, want) {
				t.Errorf("format=%s: output lacks %q", format, want)
			}
		}
	}
}

func TestStatsJSONLValid(t *testing.T) {
	out := run(t, runStats, "-app", "forkjoin", "-scale", "0.3", "-format", "jsonl")
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
	}
}

func TestHelpNamesEverySubcommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf, flag.NewFlagSet("limitctl", flag.ContinueOnError))
	help := buf.String()
	if len(subcommands) < 4 {
		t.Fatalf("subcommand registry shrank to %d entries", len(subcommands))
	}
	for _, sc := range subcommands {
		if !strings.Contains(help, sc.Name) {
			t.Errorf("help does not name subcommand %q:\n%s", sc.Name, help)
		}
		if sc.Blurb == "" {
			t.Errorf("subcommand %q has no blurb", sc.Name)
		}
	}
	if !strings.Contains(help, "usage: limitctl") {
		t.Errorf("help lacks the usage line:\n%s", help)
	}
}

func TestRegistryRunnersMatchDispatch(t *testing.T) {
	// Every registry entry with a Run function must be one of the
	// in-process subcommand bodies the other tests exercise; entries
	// without one ("run", "list") are handled inline by main.
	byName := map[string]bool{}
	for _, sc := range subcommands {
		byName[sc.Name] = sc.Run != nil
	}
	if !byName["trace"] || !byName["stats"] {
		t.Error("trace and stats must carry Run functions")
	}
	if byName["run"] || byName["list"] {
		t.Error("run and list are inline dispatches, not Run functions")
	}
}

func TestUnknownFormatExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runTrace([]string{"-format", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("trace -format=bogus exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") || !strings.Contains(errb.String(), "Usage") {
		t.Errorf("trace error shape: %s", errb.String())
	}
	errb.Reset()
	if code := runStats([]string{"-format", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("stats -format=bogus exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") || !strings.Contains(errb.String(), "Usage") {
		t.Errorf("stats error shape: %s", errb.String())
	}
}

func TestUnknownAppAndMethodExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runTrace([]string{"-app", "nope"}, &out, &errb); code != 2 {
		t.Errorf("trace -app=nope exited %d, want 2", code)
	}
	if code := runStats([]string{"-method", "nope"}, &out, &errb); code != 2 {
		t.Errorf("stats -method=nope exited %d, want 2", code)
	}
}

// TestOutOfRangeFlagsExit2 pins the strict-input rule for the
// simulating subcommands: a machine or workload size outside its range
// exits 2 with one stderr line naming the flag, and nothing is
// simulated or written to stdout. A -width whose groups are wider
// than -counters would open no group, so it exits 2 as well.
// -rotation 0 is the kernel default and -counters 3 the smallest bank
// with a rotating slot; both run, the latter with groups of at most 3.
func TestOutOfRangeFlagsExit2(t *testing.T) {
	subs := map[string]func(args []string, stdout, stderr io.Writer) int{
		"trace": runTrace, "stats": runStats, "metrics": runMetrics,
	}
	cases := []struct {
		sub  string
		args []string
		flag string
	}{
		{"metrics", []string{"-counters", "64"}, "-counters"},
		{"metrics", []string{"-counters", "2"}, "-counters"},
		{"metrics", []string{"-counters", "0"}, "-counters"},
		{"metrics", []string{"-counters", "-1"}, "-counters"},
		{"metrics", []string{"-counters", "3", "-width", "4"}, "-width"},
		{"metrics", []string{"-counters", "3"}, "-width"}, // default width 4
		{"metrics", []string{"-counters", "6", "-width", "8"}, "-width"},
		{"metrics", []string{"-cores", "0"}, "-cores"},
		{"metrics", []string{"-scale", "NaN"}, "-scale"},
		{"metrics", []string{"-scale", "0"}, "-scale"},
		{"metrics", []string{"-scale", "+Inf"}, "-scale"},
		{"stats", []string{"-cores", "0"}, "-cores"},
		{"stats", []string{"-cores", "-2"}, "-cores"},
		{"stats", []string{"-scale", "-1"}, "-scale"},
		{"stats", []string{"-scale", "NaN"}, "-scale"},
		{"trace", []string{"-n", "0"}, "-n"},
		{"trace", []string{"-n", "-5"}, "-n"},
		{"trace", []string{"-cores", "0"}, "-cores"},
		{"trace", []string{"-scale", "Inf"}, "-scale"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		code := subs[tc.sub](tc.args, &out, &errb)
		if code != 2 {
			t.Errorf("%s %v exited %d, want 2 (stderr: %s)", tc.sub, tc.args, code, errb.String())
			continue
		}
		msg := errb.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.flag+" must be") {
			t.Errorf("%s %v: want one line naming %s, got %q", tc.sub, tc.args, tc.flag, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%s %v wrote %d bytes to stdout before rejecting", tc.sub, tc.args, out.Len())
		}
	}
	for _, args := range [][]string{
		{"-app", "forkjoin", "-scale", "0.05", "-counters", "3", "-width", "3", "-format", "frames"},
		{"-app", "forkjoin", "-scale", "0.05", "-counters", "17", "-width", "64", "-format", "frames"}, // one 16-event group
		{"-app", "forkjoin", "-scale", "0.05", "-counters", "63", "-rotation", "0", "-format", "frames"},
	} {
		run(t, runMetrics, args...)
	}
}
