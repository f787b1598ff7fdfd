package machine_test

import (
	"fmt"
	"testing"

	"limitsim/internal/chaos"
	"limitsim/internal/invariant"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/tls"
	"limitsim/internal/workloads"
)

// watchEpoch makes every Run check its cached pick inputs against the
// kernel after each RunCore that left the epoch unmoved: every core's
// NextActionTime, AllDone (false, or Run would have stopped) and
// NextSleeperWake. The returned function removes the check (so does
// the test's end), fails the test on the first mismatch and returns how
// many checks ran.
func watchEpoch(t *testing.T) func() int {
	t.Helper()
	const never = ^uint64(0)
	checks := 0
	var first string
	t.Cleanup(func() { machine.SetEpochCheck(nil) })
	machine.SetEpochCheck(func(m *machine.Machine, ats []uint64, nextWake uint64) {
		checks++
		if first != "" {
			return
		}
		for i, at := range ats {
			want := never
			if w, ok := m.Kern.NextActionTime(i); ok {
				want = w
			}
			if at != want {
				first = fmt.Sprintf("check %d: core %d cached next action %d, kernel says %d", checks, i, at, want)
				return
			}
		}
		if m.Kern.AllDone() {
			first = fmt.Sprintf("check %d: every thread is done but the epoch did not move", checks)
			return
		}
		want := never
		if w, ok := m.Kern.NextSleeperWake(); ok {
			want = w
		}
		if nextWake != want {
			first = fmt.Sprintf("check %d: cached sleeper deadline %d, kernel says %d", checks, nextWake, want)
		}
	})
	return func() int {
		t.Helper()
		machine.SetEpochCheck(nil)
		if first != "" {
			t.Fatal(first)
		}
		return checks
	}
}

// TestEpochCacheMatchesKernel runs every surface that drives Run —
// single-stepped chaos and tenant campaigns, the tenant layer alone,
// an observed (probe) run, the four apps in bursts, and threads that
// die by fault — at 1 to 4 cores, and requires Run's cached view of the
// other cores to match the kernel after every RunCore whose epoch did
// not move.
func TestEpochCacheMatchesKernel(t *testing.T) {
	for cores := 1; cores <= 4; cores++ {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			done := watchEpoch(t)
			for _, tenants := range []int{0, 3} {
				cfg := chaos.Config{Seeds: 1, Cores: cores, Iters: 40, Parallel: 1, Tenants: tenants}
				res := chaos.Run(cfg)
				if n := res.TotalRunErrors(); n > 0 {
					t.Fatalf("tenants=%d: %d run error(s)", tenants, n)
				}
				if v := res.TotalViolations(); v > 0 {
					t.Fatalf("tenants=%d: %d violation(s)", tenants, v)
				}
			}
			for _, app := range epochApps() {
				for _, mode := range []string{"bursts", "tenants", "probes"} {
					runEpochApp(t, app, cores, mode)
				}
			}
			runFaulting(t, cores)
			if done() == 0 {
				t.Fatal("no RunCore left the epoch unmoved: the check never ran")
			}
		})
	}
}

// epochApp is one app of TestEpochCacheMatchesKernel.
type epochApp struct {
	name   string
	launch func(m *machine.Machine) []*kernel.Thread
}

// epochApps builds the four simbench apps at a small size: mysql,
// apache and forkjoin with LiMiT reads and multiplexed event groups,
// and the clone/join churn.
func epochApps() []epochApp {
	ins := workloads.LimitInstr()
	ins.MuxGroups = workloads.DefaultMuxGroups(3)
	mysqlCfg := workloads.DefaultMySQL()
	mysqlCfg.TxnsPerWorker = 6
	apacheCfg := workloads.DefaultApache()
	apacheCfg.RequestsPerWorker = 6
	fjCfg := workloads.DefaultForkJoin()
	fjCfg.Iterations = 3
	var apps []epochApp
	for _, a := range []*workloads.App{
		workloads.BuildMySQL(mysqlCfg, ins),
		workloads.BuildApache(apacheCfg, ins),
		workloads.BuildForkJoin(fjCfg, ins),
	} {
		snap := a.Space.Snapshot()
		apps = append(apps, epochApp{name: a.Name, launch: func(m *machine.Machine) []*kernel.Thread {
			a.Space.Restore(snap)
			return a.Launch(m)
		}})
	}
	churn := workloads.BuildChurn(workloads.ChurnConfig{Waves: 2})
	snap := churn.Space.Snapshot()
	apps = append(apps, epochApp{name: "churn", launch: func(m *machine.Machine) []*kernel.Thread {
		churn.Space.Restore(snap)
		proc := m.Kern.NewProcess(churn.Prog, churn.Space)
		mgr := m.Kern.Spawn(proc, "churn-mgr", churn.Entries[0], 1)
		mgr.SetReg(tls.SlotReg, uint64(churn.ManagerSlot(0)))
		return []*kernel.Thread{mgr}
	}})
	return apps
}

// runEpochApp runs app to completion: in bursts (nothing observes the
// boundaries), with the tenant layer on and threads dealt across two
// guests as limitctl -tenants does, or with an invariant checker's
// probes attached.
func runEpochApp(t *testing.T, app epochApp, cores int, mode string) {
	t.Helper()
	kcfg := kernel.DefaultConfig()
	kcfg.Quantum = 40_000
	mcfg := machine.Config{NumCores: cores, Kernel: kcfg}
	if mode == "tenants" {
		mcfg.Kernel.Tenants = 2
		mcfg.Kernel.VCPUs = max(1, cores-1)
		mcfg.Uncore = true
	}
	m := machine.New(mcfg)
	defer m.Release()
	threads := app.launch(m)
	switch mode {
	case "tenants":
		for i, th := range threads {
			th.Tenant = i % 2
		}
	case "probes":
		invariant.New(nil).Attach(m.Kern)
	}
	res := m.Run(machine.RunLimits{MaxSteps: 20_000_000})
	if res.Err != nil || !res.AllDone {
		t.Fatalf("%s (%s): %v, err %v", app.name, mode, res, res.Err)
	}
}

// runFaulting runs threads that sleep, wake each other and finish, the
// last of them by a fault with nobody joining it: only the fault
// itself can tell Run that every thread is done.
func runFaulting(t *testing.T, cores int) {
	t.Helper()
	m := machine.New(machine.Config{NumCores: cores})
	defer m.Release()
	b := isa.NewBuilder()
	b.Label("short")
	b.Compute(200)
	b.MovImm(isa.R0, 3_000)
	b.Syscall(kernel.SysNanosleep)
	b.Compute(200)
	b.Halt()
	b.Label("long")
	b.Compute(500)
	b.MovImm(isa.R0, 20_000)
	b.Syscall(kernel.SysNanosleep)
	b.Compute(500)
	b.Syscall(999) // unknown syscall: the thread faults
	b.Halt()
	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, nil)
	for i := 0; i < 3; i++ {
		m.Kern.Spawn(proc, "short", prog.MustEntry("short"), uint64(i))
	}
	m.Kern.Spawn(proc, "long", prog.MustEntry("long"), 9)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000_000})
	if !res.AllDone || res.Deadlocked || len(res.Faults) != 1 {
		t.Fatalf("want every thread done and one fault, got %v", res)
	}
}
