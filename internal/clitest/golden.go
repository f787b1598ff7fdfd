package clitest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDir is the repository's testdata/golden as seen from a cmd
// package directory, where go test runs that package's tests.
const goldenDir = "../../testdata/golden"

// Golden byte-compares got with the golden file name that
// testdata/golden/record.sh records.
func Golden(t testing.TB, name, got string) {
	t.Helper()
	Compare(t, filepath.Join(goldenDir, name), got)
}

// Compare fails t unless got is byte-identical to the file at path,
// reporting the first line that differs.
func Compare(t testing.TB, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("output has %d lines, %s has %d", len(gl), path, len(wl))
}
