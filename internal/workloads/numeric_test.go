package workloads_test

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// runUnfused is runWorkload on the one-op-per-step bytecode: it loads w
// through bytecode.CompileNoFuse — the reference the peephole pass is checked
// against — and then drives run() through the whole tier ladder as usual.
func runUnfused(t *testing.T, w workloads.Workload, arch vm.Arch, maxTier profile.Tier, calls int) (*vm.VM, value.Value) {
	t.Helper()
	v := newEngine(arch, maxTier)
	if err := loadUnfused(w)(v); err != nil {
		t.Fatalf("%s unfused setup: %v", w.ID, err)
	}
	return v, callRun(t, w, v, calls)
}

// loadUnfused returns a loader running w's program compiled without fusion.
func loadUnfused(w workloads.Workload) func(*vm.VM) error {
	return func(v *vm.VM) error {
		prog, err := parser.Parse(w.Source)
		if err != nil {
			return err
		}
		main, err := bytecode.CompileNoFuse(prog)
		if err != nil {
			return err
		}
		_, err = v.RunMain(main)
		return err
	}
}

// The numeric suite must agree across every architecture, fused and unfused —
// superinstruction fusion and the boxed register file are
// semantics-preserving on exactly the programs built to exercise them.
func TestNumericAgreeAcrossArchs(t *testing.T) {
	for _, w := range workloads.Numeric() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			_, want := runWorkload(t, w, vm.ArchBase, profile.TierInterp, 2)
			for _, arch := range vm.AllArchs {
				cfg := engineConfig(arch, profile.TierFTL)
				_, got := runPrinted(t, w, cfg, "", nil, 50)
				if got.ToStringValue() != want.ToStringValue() {
					t.Errorf("%v: result %q, want %q", arch, got, want)
				}
				if _, got := runPrinted(t, w, cfg, "unfused", loadUnfused(w), 50); got.ToStringValue() != want.ToStringValue() {
					t.Errorf("%v unfused: result %q, want %q", arch, got, want)
				}
			}
		})
	}
}

// Cross-tier parity regression: driving a workload through the full ladder —
// OSR entries, deopts, Baseline resumes through the boxed frame.Frame — must
// leave the same observable machine state from fused and unfused bytecode.
// Fusion shifts pcs and eliminates dead temps, but results, deopt/OSR counts,
// and the profiling counters that drive tier-up (InvocationCount,
// BackEdgeCount) do not depend on it.
func TestBoxingParityAcrossTiers(t *testing.T) {
	ids := []string{"C01", "C02", "C03", "C04", "C05", "singlecall", "N01", "N02", "N03", "N04", "N05"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByID(id)
			if !ok {
				t.Fatalf("workload %s missing", id)
			}
			type obs struct {
				result            string
				deopts, osr       int64
				invocs, backEdges int64
			}
			measure := func(run func(*testing.T, workloads.Workload, vm.Arch, profile.Tier, int) (*vm.VM, value.Value)) obs {
				v, res := run(t, w, vm.ArchNoMap, profile.TierFTL, 50)
				fv := v.Globals().Get("run")
				if !fv.IsCallable() {
					t.Fatal("no run()")
				}
				p := v.ProfileFor(fv.Object().Fn.Code.(*bytecode.Function))
				return obs{
					result:    res.ToStringValue(),
					deopts:    v.Counters().Deopts,
					osr:       v.Counters().OSREntries,
					invocs:    p.InvocationCount,
					backEdges: p.BackEdgeCount,
				}
			}
			fused := measure(runWorkload)
			unfused := measure(runUnfused)
			if fused != unfused {
				t.Errorf("fusion changed observable state:\n  fused: %+v\n  unfused: %+v", fused, unfused)
			}
		})
	}
}
