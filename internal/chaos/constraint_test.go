package chaos

import (
	"testing"

	"limitsim/internal/pmu"
)

// TestRingConstraints checks every core's ground truth in both rings
// after one run of each default and tenant mix. Per ring, misses only
// happen on memory operations and deeper levels are reached only
// through shallower ones, so llc-miss ≤ l2-miss ≤ l1d-miss ≤ loads +
// stores + atomics; a page walk follows a DTLB miss, a mispredict
// needs a branch, and no instruction retires in zero cycles.
//
// Kernel work is KernelWork (cycles plus 0.8 instructions per cycle)
// and the KernelCachePollution load walk, so the kernel ring also never
// stores, branches or touches the DTLB, and its misses are bounded by
// loads alone.
func TestRingConstraints(t *testing.T) {
	rings := []struct {
		name string
		ring pmu.Ring
	}{{"user", pmu.RingUser}, {"kernel", pmu.RingKernel}}
	for _, cfg := range []Config{quickCfg().withDefaults(), quickTenantCfg().withDefaults()} {
		ws := newCampaignWorker(cfg)
		for mi, mix := range cfg.Mixes {
			var out runOutcome
			m := simulate(cfg, mix, RunSeed(mi, 0), ws, &out)
			if out.errMsg != "" {
				t.Fatalf("%s: %s", mix.Name, out.errMsg)
			}
			for ci, core := range m.Cores {
				for _, r := range rings {
					gt := func(ev pmu.Event) uint64 { return core.PMU.GroundTruth(ev, r.ring) }
					check := func(loName string, lo uint64, hiName string, hi uint64) {
						if lo > hi {
							t.Errorf("%s core %d: %s %s %d > %s %d", mix.Name, ci, r.name, loName, lo, hiName, hi)
						}
					}
					memOps := gt(pmu.EvLoads) + gt(pmu.EvStores) + gt(pmu.EvAtomics)
					chain := []pmu.Event{pmu.EvLLCMiss, pmu.EvL2Miss, pmu.EvL1DMiss}
					for i := 1; i < len(chain); i++ {
						check(chain[i-1].String(), gt(chain[i-1]), chain[i].String(), gt(chain[i]))
					}
					check("l1d-miss", gt(pmu.EvL1DMiss), "loads+stores+atomics", memOps)
					check("dtlb-walk", gt(pmu.EvDTLBWalk), "dtlb-miss", gt(pmu.EvDTLBMiss))
					check("branch-miss", gt(pmu.EvBranchMiss), "branches", gt(pmu.EvBranches))
					check("instructions", gt(pmu.EvInstructions), "cycles", gt(pmu.EvCycles))
					if gt(pmu.EvL1DMiss) == 0 || gt(pmu.EvInstructions) == 0 {
						t.Errorf("%s core %d: no %s L1D misses or instructions; the chain holds vacuously", mix.Name, ci, r.name)
					}
					if r.ring != pmu.RingKernel {
						continue
					}
					check("l1d-miss", gt(pmu.EvL1DMiss), "loads", gt(pmu.EvLoads))
					for _, ev := range []pmu.Event{pmu.EvStores, pmu.EvBranches, pmu.EvDTLBMiss, pmu.EvDTLBWalk} {
						if n := gt(ev); n != 0 {
							t.Errorf("%s core %d: kernel %v = %d, the model has none", mix.Name, ci, ev, n)
						}
					}
				}
			}
			m.Release()
		}
	}
}
