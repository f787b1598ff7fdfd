package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"limitsim/internal/clitest"
)

// runCode runs the command in process and returns its exit code,
// stdout and stderr.
func runCode(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGoldens replays the invocations testdata/golden/record.sh
// records and byte-compares each at several pool widths: the report
// must not depend on how runs fan out.
func TestGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		widths []int
		report bool // the golden is the -report file, not stdout
	}{
		{"campaign.txt", []string{"-seeds", "4", "-iters", "150", "-metrics"}, []int{1, 2, 4, 8}, false},
		{"soak.txt", []string{"-soak", "-seeds", "2", "-metrics"}, []int{1, 4}, false},
		{"tenant-campaign.txt", []string{"-tenants", "4", "-seeds", "2", "-metrics"}, []int{1, 4}, true},
	}
	for _, tc := range cases {
		for _, n := range tc.widths {
			args := append(append([]string{}, tc.args...), "-parallel", strconv.Itoa(n))
			var path string
			if tc.report {
				path = filepath.Join(t.TempDir(), "report.txt")
				args = append(args, "-report", path)
			}
			code, got, stderr := runCode(args...)
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
			}
			if tc.report {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got = string(data)
			}
			clitest.Golden(t, tc.golden, got)
		}
	}
}

// TestExitCodes pins the verdict and usage discipline: a healthy
// campaign and an ablation that detects its damage pass, a blind
// ablation fails, and usage errors exit 2 before anything runs.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-seeds", "1", "-threads", "2", "-cores", "2", "-iters", "20"}, 0},
		{[]string{"-seeds", "1", "-iters", "150", "-mix", "pmi-storm", "-nofixup"}, 0},
		{[]string{"-seeds", "1", "-iters", "50", "-mix", "baseline", "-nofixup"}, 1},
		{[]string{"-ablate-reclaim"}, 2},
		{[]string{"-mix", "bogus"}, 2},
		{[]string{"-soak", "-mix", "bogus"}, 2},
		{[]string{"-seeds", "-3"}, 2},
		{[]string{"-parallel", "-5"}, 2},
		{[]string{"-soak", "-iters", "-4"}, 2},
	}
	for _, tc := range cases {
		if code, _, stderr := runCode(tc.args...); code != tc.want {
			t.Errorf("%v: exit %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr)
		}
	}
}
