package pmu

import (
	"math/rand"
	"testing"
)

// naivePMU mirrors the pre-dispatch-table AddEvent: a linear scan over
// every counter with per-counter filter checks. The dispatch table
// must be observationally identical to it.
type naivePMU struct {
	cfgs    []CounterConfig
	values  []uint64
	pending uint64
	mask    uint64
	truth   [NumEvents][2]uint64
}

func newNaive(f Features) *naivePMU {
	mask := ^uint64(0)
	if f.CounterWidth < 64 {
		mask = (1 << uint(f.CounterWidth)) - 1
	}
	return &naivePMU{
		cfgs:   make([]CounterConfig, f.NumCounters),
		values: make([]uint64, f.NumCounters),
		mask:   mask,
	}
}

func (np *naivePMU) configure(idx int, cfg CounterConfig) {
	np.cfgs[idx] = cfg
	np.pending &^= 1 << uint(idx)
}

func (np *naivePMU) write(idx int, v uint64, writeWidth int) {
	wmask := ^uint64(0)
	if writeWidth < 64 {
		wmask = (1 << uint(writeWidth)) - 1
	}
	np.values[idx] = v & wmask
	np.pending &^= 1 << uint(idx)
}

func (np *naivePMU) addEvent(ring Ring, ev Event, n uint64) {
	if n == 0 {
		return
	}
	np.truth[ev][ring] += n
	for i := range np.cfgs {
		cfg := np.cfgs[i]
		if cfg.Event != ev || !cfg.counts(ring) {
			continue
		}
		before := np.values[i]
		np.values[i] = (before + n) & np.mask
		if ob := cfg.OverflowBit; ob >= 0 && ob < 64 {
			threshold := uint64(1) << uint(ob)
			if (before < threshold && np.values[i] >= threshold) || np.values[i] < before {
				np.pending |= 1 << uint(i)
			}
		}
	}
}

// TestDispatchRebuildOnReconfigure pins that Configure — the single
// mutation point the kernel's context-switch, PMI and group-rotation
// paths all go through — rebuilds the dispatch table.
func TestDispatchRebuildOnReconfigure(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvLoads, CountUser: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvLoads, 5)
	if got := p.Read(0); got != 5 {
		t.Fatalf("watched event did not advance counter: %d", got)
	}

	// Reprogram to a different event, as group rotation does.
	p.Configure(0, CounterConfig{Event: EvStores, CountUser: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvLoads, 7)
	if got := p.Read(0); got != 5 {
		t.Fatalf("stale dispatch entry: loads advanced a stores counter to %d", got)
	}
	p.AddEvent(RingUser, EvStores, 3)
	if got := p.Read(0); got != 8 {
		t.Fatalf("reprogrammed event did not advance counter: %d", got)
	}

	// Disable, as the context-switch save path does.
	p.Configure(0, CounterConfig{Enabled: false, OverflowBit: -1})
	p.AddEvent(RingUser, EvStores, 100)
	if got := p.Read(0); got != 8 {
		t.Fatalf("disabled counter advanced to %d", got)
	}

	// Ring filters map to separate dispatch rows.
	p.Configure(1, CounterConfig{Event: EvCycles, CountKernel: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvCycles, 9)
	if got := p.Read(1); got != 0 {
		t.Fatalf("kernel-only counter saw user events: %d", got)
	}
	p.AddEvent(RingKernel, EvCycles, 4)
	if got := p.Read(1); got != 4 {
		t.Fatalf("kernel-only counter missed kernel events: %d", got)
	}
}

// rescanWatchers derives every dispatch entry's watcher mask from
// scratch: bit i wherever counter i's programming accepts (event,
// ring), plus uncoreBit everywhere while an Uncore is attached.
// Configure maintains the table incrementally and must always agree.
func rescanWatchers(p *PMU) (w [2 * int(NumEvents)]uint64) {
	for i, c := range p.counters {
		for _, ring := range []Ring{RingUser, RingKernel} {
			if c.cfg.Event < NumEvents && c.cfg.counts(ring) {
				w[int(ring)*int(NumEvents)+int(c.cfg.Event)] |= 1 << uint(i)
			}
		}
	}
	if p.uncore != nil {
		for i := range w {
			w[i] |= uncoreBit
		}
	}
	return w
}

// TestDispatchEquivalenceRandomized drives the real PMU and the naive
// reference through an identical random stream of Configure / Write /
// AddEvent / AttachUncore operations — the same shapes the kernel's
// save/restore, overflow, multiplexing rotation and socket paths
// produce — and demands identical values, pending masks, uncore totals
// and ground truth at every step. Programming includes event selectors
// past NumEvents and in-place enable and ring-filter flips of one
// slot; after every Configure and AttachUncore the dispatch table must
// equal a from-scratch rescan of all counters.
func TestDispatchEquivalenceRandomized(t *testing.T) {
	wide := DefaultFeatures()
	wide.NumCounters = 63 // highest counter bit sits next to uncoreBit
	for name, feats := range map[string]Features{"default": DefaultFeatures(), "63 counters": wide} {
		t.Run(name, func(t *testing.T) { dispatchEquivalence(t, feats) })
	}
}

func dispatchEquivalence(t *testing.T, feats Features) {
	p := New(feats)
	np := newNaive(feats)
	rng := rand.New(rand.NewSource(0xd15c)) // deterministic
	u := NewUncore()
	var npUncore [NumEvents]uint64
	attached := false

	randCfg := func() CounterConfig {
		return CounterConfig{
			Event:       Event(rng.Intn(int(NumEvents) + 3)), // some past NumEvents
			CountUser:   rng.Intn(2) == 0,
			CountKernel: rng.Intn(2) == 0,
			Enabled:     rng.Intn(4) != 0,
			OverflowBit: []int{-1, 4, 10, 31}[rng.Intn(4)],
		}
	}
	configure := func(step, idx int, cfg CounterConfig) {
		p.Configure(idx, cfg)
		np.configure(idx, cfg)
		if want := rescanWatchers(p); p.watcherTable() != want {
			t.Fatalf("step %d: Configure(%d, %+v) left the dispatch table %x, rescan gives %x", step, idx, cfg, p.watcherTable(), want)
		}
	}

	for step := 0; step < 20_000; step++ {
		switch rng.Intn(14) {
		case 0, 1: // reprogram (context switch in / rotation)
			configure(step, rng.Intn(feats.NumCounters), randCfg())
		case 2: // toggle enable on the same slot (save disables, restore enables)
			idx := rng.Intn(feats.NumCounters)
			cfg := p.Config(idx)
			cfg.Enabled = !cfg.Enabled
			configure(step, idx, cfg)
		case 3: // change the ring filter on the same slot
			idx := rng.Intn(feats.NumCounters)
			cfg := p.Config(idx)
			cfg.CountUser, cfg.CountKernel = rng.Intn(2) == 0, rng.Intn(2) == 0
			configure(step, idx, cfg)
		case 4: // attach or detach the socket block
			if attached = rng.Intn(2) == 0; attached {
				p.AttachUncore(u)
			} else {
				p.AttachUncore(nil)
			}
			if want := rescanWatchers(p); p.watcherTable() != want {
				t.Fatalf("step %d: AttachUncore left the dispatch table %x, rescan gives %x", step, p.watcherTable(), want)
			}
		case 5: // restore a saved value
			idx, v := rng.Intn(feats.NumCounters), rng.Uint64()>>uint(rng.Intn(64))
			p.Write(idx, v)
			np.write(idx, v, feats.WriteWidth)
		default: // events, occasionally in large steps
			ring := Ring(rng.Intn(2))
			ev := Event(rng.Intn(int(NumEvents)))
			n := uint64(rng.Intn(3))
			if rng.Intn(20) == 0 {
				n = uint64(rng.Intn(5000))
			}
			p.AddEvent(ring, ev, n)
			np.addEvent(ring, ev, n)
			if attached {
				npUncore[ev] += n
			}
		}

		for i := 0; i < feats.NumCounters; i++ {
			if p.Read(i) != np.values[i] {
				t.Fatalf("step %d: counter %d diverged: dispatch %d, naive %d", step, i, p.Read(i), np.values[i])
			}
		}
		if p.pending != np.pending {
			t.Fatalf("step %d: pending mask diverged: dispatch %#x, naive %#x", step, p.pending, np.pending)
		}
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		if u.Value(ev) != npUncore[ev] {
			t.Fatalf("uncore %v diverged: %d, naive %d", ev, u.Value(ev), npUncore[ev])
		}
		for ring := Ring(0); ring < 2; ring++ {
			if p.GroundTruth(ev, ring) != np.truth[ev][ring] {
				t.Fatalf("ground truth diverged for %v/%v", ev, ring)
			}
		}
	}
}

// watcherTable copies out the dispatch table's watcher masks.
func (p *PMU) watcherTable() (w [2 * int(NumEvents)]uint64) {
	for i, e := range p.events {
		w[i] = e.watchers
	}
	return w
}
