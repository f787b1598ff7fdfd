package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"limitsim/internal/clitest"
	"limitsim/internal/experiments"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
	}
	return out.String()
}

func golden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile("../../testdata/golden/experiments.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestGoldenExperiments pins every section's title, order and body
// byte for byte against the golden that testdata/golden/record.sh
// records at -scale 0.1, serially and on a pool.
func TestGoldenExperiments(t *testing.T) {
	for _, n := range []string{"1", "4"} {
		clitest.Golden(t, "experiments.txt", runOK(t, "-scale", "0.1", "-parallel", n))
	}
}

// TestOnlySelectsByPrefix checks that -only matches case-insensitively
// and prints exactly the selected sections, as they appear in the
// full run.
func TestOnlySelectsByPrefix(t *testing.T) {
	got := runOK(t, "-only", "f7", "-scale", "0.1")
	if !strings.HasPrefix(got, "F7 — Hardware-counter enhancements\n") {
		t.Errorf("-only f7 output starts %q", strings.SplitN(got, "\n", 2)[0])
	}
	if strings.Contains(got, "F8 —") || !strings.Contains(golden(t), got) {
		t.Errorf("-only f7 output is not exactly the golden's F7 section:\n%s", got)
	}
}

type uncleanResult struct{}

func (uncleanResult) Render(w io.Writer) { io.WriteString(w, "body\n") }
func (uncleanResult) Clean() bool        { return false }

// TestUncleanResultFailsSection checks the one clean rule: a result
// whose Clean method returns false renders, then fails its section.
func TestUncleanResultFailsSection(t *testing.T) {
	s := sec("X1 — unclean", func(experiments.Scale) (uncleanResult, error) { return uncleanResult{}, nil })
	var out bytes.Buffer
	if err := s.exec(1, &out); err == nil {
		t.Error("unclean result did not fail its section")
	}
	if out.String() != "body\n" {
		t.Errorf("unclean result rendered %q, want its body", out.String())
	}
}
