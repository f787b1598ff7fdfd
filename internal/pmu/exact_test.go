package pmu

import "testing"

// Exact-count tests for the per-instruction count sites — AddUser,
// AddKernel and AddRetire — and the retirement deferral window behind
// AddRetire (recomputeDeferBudget, flushRetire, bumpRetire). Every
// expected value below is worked out by hand.

// op is one AddUser ('u') or AddKernel ('k') call.
type op struct {
	kind byte
	ev   Event
	n    uint64
}

// TestAddUserAddKernelExact pins the ring filter, the per-counter sums,
// ground truth per ring, the uncore mirror and the pending bits of the
// two fixed-ring count sites.
func TestAddUserAddKernelExact(t *testing.T) {
	cases := []struct {
		name    string
		feats   Features
		cfgs    []CounterConfig
		start   []uint64
		uncore  bool
		ops     []op
		values  []uint64
		pending uint64
		truth   map[Event][2]uint64 // [user, kernel]
	}{
		{
			name:  "ring filters",
			feats: DefaultFeatures(),
			cfgs: []CounterConfig{
				{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1},
				{Event: EvCycles, CountKernel: true, Enabled: true, OverflowBit: -1},
				{Event: EvCycles, CountUser: true, CountKernel: true, Enabled: true, OverflowBit: -1},
				{Event: EvCycles, CountUser: true, CountKernel: true, Enabled: false, OverflowBit: -1},
			},
			ops: []op{
				{kind: 'u', ev: EvCycles, n: 5},
				{kind: 'k', ev: EvCycles, n: 7},
				{kind: 'u', ev: EvInstructions, n: 3},
				{kind: 'k', ev: EvLoads, n: 11},
				{kind: 'u', ev: EvCycles, n: 100},
			},
			values: []uint64{105, 7, 112, 0},
			truth: map[Event][2]uint64{
				EvCycles:       {105, 7},
				EvInstructions: {3, 0},
				EvLoads:        {0, 11},
			},
		},
		{
			name:  "threshold crossings",
			feats: DefaultFeatures(),
			cfgs: []CounterConfig{
				{Event: EvLoads, CountUser: true, Enabled: true, OverflowBit: 3},   // threshold 8
				{Event: EvLoads, CountKernel: true, Enabled: true, OverflowBit: 3}, // kernel only: 6+1 < 8
				{Event: EvStores, CountUser: true, Enabled: true, OverflowBit: 4},  // never reaches 16
				{Event: EvLoads, CountUser: true, Enabled: true, OverflowBit: 2},   // starts above 4: no crossing
			},
			start: []uint64{6, 6, 0, 9},
			ops: []op{
				{kind: 'u', ev: EvLoads, n: 1}, // 7: below 8
				{kind: 'k', ev: EvLoads, n: 1},
				{kind: 'u', ev: EvLoads, n: 1}, // 8: crosses
				{kind: 'u', ev: EvStores, n: 15},
			},
			values:  []uint64{8, 7, 15, 11},
			pending: 0b0001,
			truth: map[Event][2]uint64{
				EvLoads:  {2, 1},
				EvStores: {15, 0},
			},
		},
		{
			name:  "width wrap",
			feats: Features{NumCounters: 2, CounterWidth: 8, WriteWidth: 8},
			cfgs: []CounterConfig{
				{Event: EvBranches, CountKernel: true, Enabled: true, OverflowBit: 7}, // threshold 128
				{Event: EvBranches, CountKernel: true, Enabled: true, OverflowBit: -1},
			},
			start: []uint64{250, 250},
			ops: []op{
				{kind: 'k', ev: EvBranches, n: 10}, // 260 mod 256 = 4: a wrap
			},
			values:  []uint64{4, 4},
			pending: 0b01, // only the counter with a threshold interrupts
			truth:   map[Event][2]uint64{EvBranches: {0, 10}},
		},
		{
			name:   "uncore mirror",
			feats:  DefaultFeatures(),
			cfgs:   []CounterConfig{{Event: EvLLCMiss, CountUser: true, Enabled: true, OverflowBit: -1}},
			uncore: true,
			ops: []op{
				{kind: 'u', ev: EvLLCMiss, n: 4},
				{kind: 'k', ev: EvLLCMiss, n: 6},
				{kind: 'k', ev: EvCycles, n: 50},
			},
			values: []uint64{4},
			truth: map[Event][2]uint64{
				EvLLCMiss: {4, 6},
				EvCycles:  {0, 50},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.feats)
			var u *Uncore
			if tc.uncore {
				u = NewUncore()
				p.AttachUncore(u)
			}
			for i, cfg := range tc.cfgs {
				p.Configure(i, cfg)
				if i < len(tc.start) {
					p.Write(i, tc.start[i])
				}
			}
			for _, o := range tc.ops {
				if o.kind == 'u' {
					p.AddUser(o.ev, o.n)
				} else {
					p.AddKernel(o.ev, o.n)
				}
			}
			for i, want := range tc.values {
				if got := p.Read(i); got != want {
					t.Errorf("counter %d = %d, want %d", i, got, want)
				}
			}
			if got := p.pending; got != tc.pending {
				t.Errorf("pending %#b, want %#b", got, tc.pending)
			}
			for ev := Event(0); ev < NumEvents; ev++ {
				want := tc.truth[ev]
				if u0, k0 := p.GroundTruth(ev, RingUser), p.GroundTruth(ev, RingKernel); u0 != want[0] || k0 != want[1] {
					t.Errorf("%v ground truth user/kernel %d/%d, want %d/%d", ev, u0, k0, want[0], want[1])
				}
				if u != nil && u.Value(ev) != want[0]+want[1] {
					t.Errorf("uncore %v = %d, want %d", ev, u.Value(ev), want[0]+want[1])
				}
			}
		})
	}
}

// TestAddRetireExact pins AddRetire's pair of user-ring events, with
// the deferral window open (small steps) and bypassed (a step at least
// as large as the remaining budget), and the fold into counters and
// ground truth on every observer.
func TestAddRetireExact(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvInstructions, CountUser: true, Enabled: true, OverflowBit: 47})
	p.Configure(1, CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: 47})
	p.Configure(2, CounterConfig{Event: EvCycles, CountUser: true, CountKernel: true, Enabled: true, OverflowBit: -1})
	p.Configure(3, CounterConfig{Event: EvInstructions, CountKernel: true, Enabled: true, OverflowBit: -1})
	steps := []struct {
		instrs, cycles uint64
		want           [4]uint64 // counters 0..3 after the step
	}{
		{1, 1, [4]uint64{1, 1, 1, 0}},                // slow path: opens the window
		{1, 3, [4]uint64{2, 4, 4, 0}},                // deferred
		{2, 2, [4]uint64{4, 6, 6, 0}},                // deferred
		{1, 5000, [4]uint64{5, 5006, 5006, 0}},       // larger than any budget: immediate
		{4095, 4095, [4]uint64{4100, 9101, 9101, 0}}, // the largest deferrable step
		{0, 1, [4]uint64{4100, 9102, 9102, 0}},       // a zero-instruction step
		{1, 4096, [4]uint64{4101, 13198, 13198, 0}},  // above the step cap: immediate
	}
	for i, s := range steps {
		p.AddRetire(s.instrs, s.cycles)
		for c, want := range s.want {
			if got := p.Read(c); got != want {
				t.Fatalf("step %d: counter %d = %d, want %d", i, c, got, want)
			}
		}
	}
	if got := p.GroundTruth(EvInstructions, RingUser); got != 4101 {
		t.Errorf("instructions ground truth %d, want 4101", got)
	}
	if got := p.GroundTruth(EvCycles, RingUser); got != 13198 {
		t.Errorf("cycles ground truth %d, want 13198", got)
	}
	// A kernel-ring add to a retirement event must see the deferred
	// sums first: counter 2 counts both rings.
	p.AddRetire(1, 2)
	p.AddKernel(EvCycles, 10)
	if got := p.Read(2); got != 13210 {
		t.Errorf("after a kernel add, counter 2 = %d, want 13210", got)
	}
	if p.pending != 0 {
		t.Errorf("pending %#b, want none", p.pending)
	}
}

// TestDeferBudgetExact pins recomputeDeferBudget: the window holds
// floor(distance/4096) steps, where distance is the least distance of
// any watching counter with a threshold to that threshold or to its
// width wrap, capped at 4095 steps; an attached uncore disables it.
func TestDeferBudgetExact(t *testing.T) {
	const th20 = uint64(1) << 20
	cases := []struct {
		name   string
		cfg    CounterConfig
		value  uint64
		uncore bool
		want   uint64
	}{
		{"nobody watches", CounterConfig{Event: EvLoads, CountUser: true, Enabled: true, OverflowBit: 4}, 0, false, 4095},
		{"no threshold", CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1}, 0, false, 4095},
		{"far threshold", CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: 40}, 0, false, 4095},
		{"2^20 away", CounterConfig{Event: EvInstructions, CountUser: true, Enabled: true, OverflowBit: 20}, 0, false, 256},
		{"three steps away", CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: 20}, th20 - 3*4096 - 5, false, 3},
		{"within one step", CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: 20}, th20 - 4095, false, 0},
		{"past the threshold: the wrap bounds it", CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: 20}, 1<<48 - 10*4096, false, 10},
		{"kernel-only counter", CounterConfig{Event: EvCycles, CountKernel: true, Enabled: true, OverflowBit: 1}, 0, false, 4095},
		{"uncore attached", CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1}, 0, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(DefaultFeatures())
			if tc.uncore {
				p.AttachUncore(NewUncore())
			}
			p.Configure(0, tc.cfg)
			p.Write(0, 0)
			p.counters[0].value = tc.value // above WriteWidth where needed
			// A zero-cycle, zero-instruction retirement takes the slow
			// path (the window is closed after Configure) without
			// moving any counter, then sizes the window.
			p.AddRetire(0, 0)
			if got := p.defRetire >> 48; got != tc.want {
				t.Errorf("budget %d, want %d", got, tc.want)
			}
		})
	}
}

// TestPendingAtTheSameStepAsPerStepBumping runs retirement streams
// whose watched counters cross their thresholds (or wrap) inside what
// would be a deferral window, taking pending bits after every step as
// the machine loop does. The bit must appear at exactly the step a
// per-step bump raises it, which is worked out by hand for each row,
// and the deferred PMU must agree with a per-step model at every step.
func TestPendingAtTheSameStepAsPerStepBumping(t *testing.T) {
	cases := []struct {
		name           string
		ev             Event
		overflowBit    int
		start          uint64
		instrs, cycles uint64
		want           int // 1-based step at which the bit appears
	}{
		{"instructions cross 2^14 from 0", EvInstructions, 14, 0, 1, 3, 16384},
		{"cycles cross 2^14 at 3 per step", EvCycles, 14, 0, 1, 3, 5462},
		{"cycles cross 2^16 from near it", EvCycles, 16, 1<<16 - 50_000, 1, 7, 7143},
		{"instructions wrap a 48-bit counter", EvInstructions, 20, 1<<48 - 9000, 2, 2, 4500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CounterConfig{Event: tc.ev, CountUser: true, Enabled: true, OverflowBit: tc.overflowBit}
			p := New(DefaultFeatures())
			p.Configure(1, cfg)
			p.counters[1].value = tc.start
			ref := newNaive(DefaultFeatures())
			ref.configure(1, cfg)
			ref.values[1] = tc.start
			got := -1
			for step := 1; step <= tc.want+100; step++ {
				p.AddRetire(tc.instrs, tc.cycles)
				ref.addEvent(RingUser, EvInstructions, tc.instrs)
				ref.addEvent(RingUser, EvCycles, tc.cycles)
				pm, rm := p.TakePendingOverflows(), ref.pending
				ref.pending = 0
				if pm != rm {
					t.Fatalf("step %d: pending %#b, per-step model %#b", step, pm, rm)
				}
				if pm != 0 && got < 0 {
					got = step
				}
			}
			if got != tc.want {
				t.Errorf("pending bit at step %d, want %d", got, tc.want)
			}
			if p.Read(1) != ref.values[1] {
				t.Errorf("final value %d, per-step model %d", p.Read(1), ref.values[1])
			}
		})
	}
}
