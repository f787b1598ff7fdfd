package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"limitsim/internal/clitest"
)

var updateGolden = flag.Bool("update", false, "rewrite merge golden files from current output")

func mergeFixture(name string) string { return filepath.Join("testdata", name) }

// goldenCheck compares got against testdata/name, rewriting the file
// under -update so intentional format changes are one command away.
func goldenCheck(t *testing.T, name, got string) {
	t.Helper()
	path := mergeFixture(name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	clitest.Compare(t, path, got)
}

// TestMergeGolden pins the merge subcommand end to end: two shard
// files fold into exactly the golden registry, in both render formats,
// and the fold is order-independent (the merge is commutative, which
// is what lets the fleet assemble shards in key order).
func TestMergeGolden(t *testing.T) {
	a, b := mergeFixture("merge_shard_a.jsonl"), mergeFixture("merge_shard_b.jsonl")
	for _, tc := range []struct {
		format string
		golden string
	}{
		{"text", "merge_golden.txt"},
		{"jsonl", "merge_golden.jsonl"},
	} {
		var out, errb bytes.Buffer
		if code := runMerge([]string{"-format", tc.format, a, b}, &out, &errb); code != 0 {
			t.Fatalf("format=%s: exit %d, stderr: %s", tc.format, code, errb.String())
		}
		goldenCheck(t, tc.golden, out.String())

		var swapped bytes.Buffer
		if code := runMerge([]string{"-format", tc.format, b, a}, &swapped, &errb); code != 0 {
			t.Fatalf("format=%s swapped: exit %d, stderr: %s", tc.format, code, errb.String())
		}
		if swapped.String() != out.String() {
			t.Errorf("format=%s: merge is input-order dependent", tc.format)
		}
	}
}

// TestMergeSingleFileIsIdentity pins that merging one file re-emits
// its registry unchanged in jsonl form.
func TestMergeSingleFileIsIdentity(t *testing.T) {
	path := mergeFixture("merge_shard_a.jsonl")
	var out, errb bytes.Buffer
	if code := runMerge([]string{"-format", "jsonl", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("single-file merge is not the identity\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
}

// TestMergeSchemaDriftExits1 pins the drift contract: a shard whose
// histogram bounds changed aborts with exit 1, naming both files and
// the drifted metric — never a best-effort partial merge.
func TestMergeSchemaDriftExits1(t *testing.T) {
	var out, errb bytes.Buffer
	code := runMerge([]string{mergeFixture("merge_shard_a.jsonl"), mergeFixture("merge_drifted.jsonl")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	msg := errb.String()
	for _, want := range []string{"schema drift", "kern.pmi.latency", "merge_shard_a.jsonl", "merge_drifted.jsonl"} {
		if !strings.Contains(msg, want) {
			t.Errorf("drift error lacks %q: %s", want, msg)
		}
	}
	if out.Len() != 0 {
		t.Errorf("drifted merge still wrote output: %s", out.String())
	}
}

// TestMergeUsageErrors pins the exit-2 contract: no input files and
// unknown formats are usage errors, missing files are runtime (1).
func TestMergeUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runMerge(nil, &out, &errb); code != 2 {
		t.Errorf("no files exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no input files") {
		t.Errorf("no-files error shape: %s", errb.String())
	}
	errb.Reset()
	if code := runMerge([]string{"-format", "bogus", "x.jsonl"}, &out, &errb); code != 2 {
		t.Errorf("-format=bogus exited %d, want 2", code)
	}
	errb.Reset()
	if code := runMerge([]string{mergeFixture("no_such_file.jsonl")}, &out, &errb); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
}
