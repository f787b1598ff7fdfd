package branch

import "testing"

func trainAndCount(p Predictor, pattern []bool, reps int) (mispredicts int) {
	pc := uint64(0x40)
	for r := 0; r < reps; r++ {
		for _, taken := range pattern {
			if p.Predict(pc) != taken {
				mispredicts++
			}
			p.Update(pc, taken)
		}
	}
	return
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(10)
	// A 100%-taken branch: after warmup, zero mispredicts.
	m := trainAndCount(p, []bool{true}, 100)
	if m > 2 {
		t.Errorf("bimodal mispredicted %d/100 on an always-taken branch", m)
	}
}

func TestBimodalHysteresis(t *testing.T) {
	p := NewBimodal(10)
	pc := uint64(0x80)
	// Saturate taken.
	for i := 0; i < 4; i++ {
		p.Update(pc, true)
	}
	// One not-taken must not flip the prediction (2-bit hysteresis).
	p.Update(pc, false)
	if !p.Predict(pc) {
		t.Error("one contrary outcome flipped a saturated 2-bit counter")
	}
	p.Update(pc, false)
	if p.Predict(pc) {
		t.Error("two contrary outcomes should flip the prediction")
	}
}

func TestBimodalPoorOnAlternating(t *testing.T) {
	p := NewBimodal(10)
	m := trainAndCount(p, []bool{true, false}, 100)
	// Alternating defeats a bimodal predictor (it hovers mid-state).
	if m < 50 {
		t.Errorf("bimodal mispredicted only %d/200 on alternating; model too strong", m)
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	p := NewGshare(12)
	m := trainAndCount(p, []bool{true, false}, 200)
	// History lets gshare lock onto the period-2 pattern.
	if m > 40 {
		t.Errorf("gshare mispredicted %d/400 on alternating; history not working", m)
	}
}

func TestGshareLearnsLongerPattern(t *testing.T) {
	p := NewGshare(12)
	m := trainAndCount(p, []bool{true, true, false, true, false, false}, 200)
	if m > 200 {
		t.Errorf("gshare mispredicted %d/1200 on period-6 pattern", m)
	}
}

func TestPredictorsIndependentPCs(t *testing.T) {
	p := NewBimodal(10)
	p.Update(0x10, true)
	p.Update(0x10, true)
	if p.Predict(0x11) {
		t.Error("training one PC must not bias a different table entry")
	}
}

func TestAlwaysTaken(t *testing.T) {
	var p AlwaysTaken
	if !p.Predict(0) {
		t.Error("AlwaysTaken must predict taken")
	}
	p.Update(0, false) // must not panic
}

// TestReleasedGsharePanics pins the Release contract: every later
// prediction fails loudly, and a second Release is a no-op.
func TestReleasedGsharePanics(t *testing.T) {
	for name, use := range map[string]func(p *Gshare){
		"PredictUpdate": func(p *Gshare) { p.PredictUpdate(0x40, true) },
		"Predict":       func(p *Gshare) { p.Predict(0x40) },
		"Update":        func(p *Gshare) { p.Update(0x40, false) },
	} {
		p := NewGshare(10)
		p.PredictUpdate(0x40, true)
		p.Release()
		p.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use(p)
		}()
	}
}

// TestReleaseRecyclesTable checks that a released table is reused by
// exactly one later predictor and reads as fresh there.
func TestReleaseRecyclesTable(t *testing.T) {
	old := NewGshare(10)
	for i := range old.table {
		old.table[i] = 3 // strongly taken
	}
	table := &old.table[0]
	old.Release()
	a, b := NewGshare(10), NewGshare(10)
	if &a.table[0] != table && &b.table[0] != table {
		t.Error("released table was not reused")
	}
	if &a.table[0] == &b.table[0] {
		t.Fatal("two predictors share one table")
	}
	for _, p := range []*Gshare{a, b} {
		if p.Predict(0x40) {
			t.Error("recycled predictor predicts its previous owner's training")
		}
	}
}
