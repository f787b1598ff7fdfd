package tlb

import "testing"

func TestColdMissThenHit(t *testing.T) {
	tl := NewDefault()
	r := tl.Translate(0x10_0000)
	if !r.MissL1 || !r.MissL2 {
		t.Errorf("cold translation should miss both levels: %+v", r)
	}
	if r.Cycles != uint64(DefaultConfig().L2Cycles+DefaultConfig().WalkBase) {
		t.Errorf("walk cost %d", r.Cycles)
	}
	if r := tl.Translate(0x10_0000); r.MissL1 || r.Cycles != 0 {
		t.Errorf("second translation should hit L1 free: %+v", r)
	}
}

func TestSamePageSharesEntry(t *testing.T) {
	tl := NewDefault()
	tl.Translate(0x2000)
	if r := tl.Translate(0x2ff8); r.MissL1 {
		t.Error("same 4KiB page must hit")
	}
	if r := tl.Translate(0x3000); !r.MissL1 {
		t.Error("next page must miss")
	}
}

func TestSTLBCatchesL1Evictions(t *testing.T) {
	tl := NewDefault()
	// Touch 128 pages: beyond the 64-entry DTLB, within the 512-entry STLB.
	for p := uint64(0); p < 128; p++ {
		tl.Translate(p << 12)
	}
	r := tl.Translate(0)
	if !r.MissL1 {
		t.Error("page 0 should have left the 64-entry DTLB")
	}
	if r.MissL2 {
		t.Error("page 0 should still be in the STLB")
	}
	if r.Cycles != uint64(DefaultConfig().L2Cycles) {
		t.Errorf("STLB hit cost %d", r.Cycles)
	}
}

func TestCapacityWalks(t *testing.T) {
	tl := NewDefault()
	// Touch far more pages than the STLB holds, twice; the second pass
	// must still walk for the early pages.
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 2048; p++ {
			tl.Translate(p << 12)
		}
	}
	if r := tl.Translate(0); !r.MissL2 {
		t.Error("page 0 should have been evicted from a 512-entry STLB")
	}
}

func TestFlushAll(t *testing.T) {
	tl := NewDefault()
	tl.Translate(0x5000)
	tl.FlushAll()
	if r := tl.Translate(0x5000); !r.MissL1 || !r.MissL2 {
		t.Error("flush must empty both levels")
	}
}

func TestL1LRUOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Entries = 2
	tl := New(cfg)
	a, b, c := uint64(1<<12), uint64(2<<12), uint64(3<<12)
	tl.Translate(a)
	tl.Translate(b)
	tl.Translate(a) // a back to MRU
	tl.Translate(c) // evicts b
	if r := tl.Translate(a); r.MissL1 {
		t.Error("a (MRU) should survive")
	}
	if r := tl.Translate(b); !r.MissL1 {
		t.Error("b (LRU) should have been evicted")
	}
}

// TestReleasedTLBPanics pins the Release contract: every later
// Translate fails loudly, including one for the page last translated.
func TestReleasedTLBPanics(t *testing.T) {
	for name, addr := range map[string]uint64{"same page": 0x5000, "other page": 0x9_0000} {
		tl := NewDefault()
		tl.Translate(0x5000)
		tl.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Translate (%s) after Release did not panic", name)
				}
			}()
			tl.Translate(addr)
		}()
	}
}

// TestReleaseRecyclesTable checks that a released table, released
// twice, is reused by exactly one later TLB and reads as fresh there.
func TestReleaseRecyclesTable(t *testing.T) {
	old := NewDefault()
	old.Translate(0x5000)
	table := &old.l1[0]
	old.Release()
	old.Release()
	a, b := NewDefault(), NewDefault()
	if &a.l1[0] != table && &b.l1[0] != table {
		t.Error("released table was not reused")
	}
	if &a.l1[0] == &b.l1[0] {
		t.Fatal("two TLBs share one table")
	}
	for _, tl := range []*TLB{a, b} {
		if r := tl.Translate(0x5000); !r.MissL1 || !r.MissL2 {
			t.Error("recycled TLB hit a page its previous owner held")
		}
	}
}
