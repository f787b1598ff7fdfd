package machine_test

import (
	"testing"

	"limitsim/internal/machine"
	"limitsim/internal/pmu"
	"limitsim/internal/workloads"
)

func recycleApps() (a, b *workloads.App) {
	acfg := workloads.DefaultApache()
	acfg.RequestsPerWorker = 20
	mcfg := workloads.DefaultMySQL()
	mcfg.TxnsPerWorker = 20
	return workloads.BuildApache(acfg, workloads.LimitInstr()), workloads.BuildMySQL(mcfg, workloads.LimitInstr())
}

// groundTruth runs app on a new 4-core machine (workloads.App.Run
// releases it) and returns the run and every core's per-ring
// ground-truth count of every event.
func groundTruth(t *testing.T, app *workloads.App) (machine.RunResult, [][pmu.NumEvents][2]uint64) {
	t.Helper()
	m, res, _ := app.Run(machine.Config{NumCores: 4}, machine.RunLimits{MaxSteps: 50_000_000})
	if res.Err != nil || !res.AllDone {
		t.Fatalf("%s: %v", app.Name, res)
	}
	gt := make([][pmu.NumEvents][2]uint64, len(m.Cores))
	for ci, c := range m.Cores {
		for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
			gt[ci][ev][pmu.RingUser] = c.PMU.GroundTruth(ev, pmu.RingUser)
			gt[ci][ev][pmu.RingKernel] = c.PMU.GroundTruth(ev, pmu.RingKernel)
		}
	}
	return res, gt
}

// TestRecycledTablesBehaveAsFresh runs app B on fresh host tables,
// then app A, whose released machine leaves dirty TLB, gshare and
// cache-chunk tables on the free lists, then B again on a machine built
// from those tables. Every per-core, per-ring ground-truth event of the
// second B run must equal the first. The first run is fresh because no
// earlier test in this package releases a machine. A dirty TLB cannot
// show here — the kernel flushes a core's TLB when it first switches a
// process in — so internal/tlb checks its recycled tables directly.
func TestRecycledTablesBehaveAsFresh(t *testing.T) {
	_, b := recycleApps()
	wantRes, want := groundTruth(t, b)

	a, b := recycleApps()
	groundTruth(t, a)
	gotRes, got := groundTruth(t, b)

	if gotRes.Cycles != wantRes.Cycles || gotRes.Steps != wantRes.Steps {
		t.Errorf("recycled run: %v, fresh run: %v", gotRes, wantRes)
	}
	for ci := range want {
		for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
			for ring, name := range []string{"user", "kernel"} {
				if g, w := got[ci][ev][ring], want[ci][ev][ring]; g != w {
					t.Errorf("core %d %v %s: recycled %d, fresh %d", ci, ev, name, g, w)
				}
			}
		}
	}
}

// TestReleasedMachinePanics pins the Release contract at machine level:
// the machine workloads.App.Run returns is released, so its Run panics
// even with no thread left to step, while ground-truth reads stay
// valid; a second Release is a no-op.
func TestReleasedMachinePanics(t *testing.T) {
	m, _, _ := workloads.BuildForkJoin(workloads.DefaultForkJoin(), workloads.LimitInstr()).
		Run(machine.Config{NumCores: 2}, machine.RunLimits{MaxSteps: 50_000_000})
	if m.TotalGroundTruth(pmu.EvInstructions) == 0 {
		t.Error("no instructions counted")
	}
	m.Release()
	defer func() {
		if recover() == nil {
			t.Error("Run after Release did not panic")
		}
	}()
	m.Run(machine.RunLimits{})
}
