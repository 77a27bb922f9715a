package oracle

import (
	"testing"

	"nomap/internal/chaos"
	"nomap/internal/vm"
)

// TestChaosSweepAllArchs is the acceptance sweep: every registered fault
// point fires under every architecture's pool configuration, with zero lost
// responses, per-class error counts matching the schedule, and the fleet
// converging back to healthy.
func TestChaosSweepAllArchs(t *testing.T) {
	rep := ChaosSweep(DefaultChaosConfig())
	for _, f := range rep.Failures {
		t.Error(f)
	}
	if len(rep.Archs) != len(vm.AllArchs) {
		t.Fatalf("swept %d archs, want %d", len(rep.Archs), len(vm.AllArchs))
	}
	for _, ar := range rep.Archs {
		if !ar.Recovered {
			t.Errorf("[%s] fleet did not recover", ar.Arch)
		}
		// Every registered kind is scheduled in both phases; at minimum the
		// serial phase fires one of each plus the load phase's nine points.
		if ar.Faults < int64(chaos.NumKinds)+9 {
			t.Errorf("[%s] only %d faults fired", ar.Arch, ar.Faults)
		}
		if ar.Crashes == 0 {
			t.Errorf("[%s] no crash was contained", ar.Arch)
		}
	}
}

// TestChaosSweepSingleArch keeps a cheap single-configuration smoke for
// quick iteration (the full six-arch sweep runs in CI and the acceptance
// test above).
func TestChaosSweepSingleArch(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Archs = []vm.Arch{vm.ArchNoMap}
	rep := ChaosSweep(cfg)
	for _, f := range rep.Failures {
		t.Error(f)
	}
}

// TestChaosSweepAsyncCompile re-runs the sweep with tier-up compilation on
// the background compile queue: every resilience invariant — exact serial
// bookkeeping included — must hold with the request path never compiling.
func TestChaosSweepAsyncCompile(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.AsyncCompile = true
	rep := ChaosSweep(cfg)
	for _, f := range rep.Failures {
		t.Error(f)
	}
	for _, ar := range rep.Archs {
		if !ar.Recovered {
			t.Errorf("[%s] fleet did not recover under async compilation", ar.Arch)
		}
	}
}
