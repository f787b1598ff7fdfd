package experiments

import (
	"strings"
	"testing"
)

func TestM2Shape(t *testing.T) {
	r, err := RunM2(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4*3*2 {
		t.Fatalf("got %d rows, want 24", len(r.Rows))
	}
	if !r.Clean() {
		t.Error("group invariants violated in some cell")
	}
	byApp := make(map[string][]M2Row)
	for _, row := range r.Rows {
		byApp[row.App] = append(byApp[row.App], row)
		if row.Groups == 0 || row.Frames == 0 {
			t.Errorf("%s rot=%d w=%d: no groups (%d) or frames (%d)",
				row.App, row.Rotation, row.Width, row.Groups, row.Frames)
		}
		// Long quanta may legitimately never fire at Quick scale (a
		// thread must accumulate the whole quantum in scheduled cycles);
		// the shortest quantum must always rotate.
		if row.Rotations == 0 && row.Rotation == 20_000 {
			t.Errorf("%s rot=%d w=%d: multiplexing never rotated",
				row.App, row.Rotation, row.Width)
		}
		if row.LoadedPct <= 0 || row.LoadedPct > 100 {
			t.Errorf("%s rot=%d w=%d: loaded %.1f%% out of range",
				row.App, row.Rotation, row.Width, row.LoadedPct)
		}
		// Oversubscribed groups must actually multiplex: nothing should
		// be loaded 100% of the time on a 6-slot PMU carrying 16 events.
		if row.LoadedPct >= 100 {
			t.Errorf("%s rot=%d w=%d: loaded %.1f%%, expected multiplexing",
				row.App, row.Rotation, row.Width, row.LoadedPct)
		}
	}
	if len(byApp) != 4 {
		t.Fatalf("apps covered: %v", mapsKeys(byApp))
	}
	var sb strings.Builder
	r.Render(&sb)
	for _, app := range []string{"mysql", "apache", "firefox", "churn"} {
		if !strings.Contains(sb.String(), app) {
			t.Errorf("render missing %s rows", app)
		}
	}
}

func mapsKeys(m map[string][]M2Row) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestM2ParallelDeterminism runs the multiplexing sweep serially and on
// four workers, whose cells release their machines into the shared
// free lists while others take from them; run it under -race. Both
// must render byte-identical tables.
func TestM2ParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		SetParallel(workers)
		defer SetParallel(1)
		r, err := RunM2(Quick)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		r.Render(&b)
		return b.String()
	}
	if serial, par := render(1), render(4); serial != par {
		t.Errorf("RunM2 at 4 workers differs from serial:\n%s\nvs\n%s", par, serial)
	}
}
