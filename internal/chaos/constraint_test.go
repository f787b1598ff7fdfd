package chaos

import (
	"testing"

	"limitsim/internal/pmu"
)

// TestKernelRingConstraints checks every core's kernel-ring ground
// truth after one run of each default and tenant mix. Kernel work is
// KernelWork (cycles plus 0.8 instructions per cycle) and the
// KernelCachePollution load walk, so the kernel ring must satisfy
// llc-miss ≤ l2-miss ≤ l1d-miss ≤ loads and instructions ≤ cycles, and
// it never stores, branches or touches the DTLB.
func TestKernelRingConstraints(t *testing.T) {
	for _, cfg := range []Config{quickCfg().withDefaults(), quickTenantCfg().withDefaults()} {
		ws := newCampaignWorker(cfg)
		for mi, mix := range cfg.Mixes {
			var out runOutcome
			m := simulate(cfg, mix, RunSeed(mi, 0), ws, &out)
			if out.errMsg != "" {
				t.Fatalf("%s: %s", mix.Name, out.errMsg)
			}
			for ci, core := range m.Cores {
				gt := func(ev pmu.Event) uint64 { return core.PMU.GroundTruth(ev, pmu.RingKernel) }
				chain := []pmu.Event{pmu.EvLLCMiss, pmu.EvL2Miss, pmu.EvL1DMiss, pmu.EvLoads}
				for i := 1; i < len(chain); i++ {
					if lo, hi := gt(chain[i-1]), gt(chain[i]); lo > hi {
						t.Errorf("%s core %d: kernel %v %d > %v %d", mix.Name, ci, chain[i-1], lo, chain[i], hi)
					}
				}
				if ins, cyc := gt(pmu.EvInstructions), gt(pmu.EvCycles); ins > cyc {
					t.Errorf("%s core %d: kernel instructions %d > cycles %d", mix.Name, ci, ins, cyc)
				}
				for _, ev := range []pmu.Event{pmu.EvStores, pmu.EvBranches, pmu.EvDTLBMiss, pmu.EvDTLBWalk} {
					if n := gt(ev); n != 0 {
						t.Errorf("%s core %d: kernel %v = %d, the model has none", mix.Name, ci, ev, n)
					}
				}
				if gt(pmu.EvL1DMiss) == 0 || gt(pmu.EvInstructions) == 0 {
					t.Errorf("%s core %d: no kernel L1D misses or instructions; the chain holds vacuously", mix.Name, ci)
				}
			}
			m.Release()
		}
	}
}
