package workloads_test

import (
	"math"
	"testing"

	"nomap/internal/ic"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// newPolyEngine builds an engine with the IC subsystem optionally disabled,
// returning the backend so tests can inspect compiled dispatch trees.
func newPolyEngine(arch vm.Arch, maxTier profile.Tier, disableIC bool) (*vm.VM, *jit.Backend) {
	cfg := engineConfig(arch, maxTier)
	cfg.DisableIC = disableIC
	v := vm.New(cfg)
	b := jit.Attach(v)
	return v, b
}

func runPoly(t *testing.T, w workloads.Workload, v *vm.VM, calls int) value.Value {
	t.Helper()
	if _, err := v.Run(w.Source); err != nil {
		t.Fatalf("%s setup: %v", w.ID, err)
	}
	var last value.Value
	for i := 0; i < calls; i++ {
		r, err := v.CallGlobal("run")
		if err != nil {
			t.Fatalf("%s run #%d: %v", w.ID, i, err)
		}
		last = r
	}
	return last
}

// The polymorphic suite must agree across every architecture — with the IC
// subsystem active (the default) and with it disabled — so shape-guarded
// dispatch trees and transition speculation are semantics-preserving on
// exactly the programs built to exercise them, including the megamorphic
// negative control.
func TestPolyAgreeAcrossArchs(t *testing.T) {
	for _, w := range workloads.Poly() {
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
				cfg.DisableIC = true
				if _, got := runPrinted(t, w, cfg, "ic-off", nil, 50); got.ToStringValue() != want.ToStringValue() {
					t.Errorf("%v ic-off: result %q, want %q", arch, got, want)
				}
			}
		})
	}
}

// dispatchTrees returns the dispatch summaries of every compiled artifact of
// run() (invocation-entry and OSR) after warming w to steady state.
func dispatchTrees(t *testing.T, w workloads.Workload) []ir.DispatchInfo {
	t.Helper()
	v, b := newPolyEngine(vm.ArchNoMap, profile.TierFTL, false)
	runPoly(t, w, v, 60)
	var out []ir.DispatchInfo
	for _, f := range b.CompiledFunctions() {
		if f.Name == "run" {
			out = append(out, f.Dispatch...)
		}
	}
	return out
}

// Each P-workload's steady-state code must contain the dispatch tree its
// shape mix calls for: chain widths 2/4/8 for the call suite (P03 exactly at
// profile.MaxWays), a transition-speculating store tree for P04, and no tree
// at all for the megamorphic control.
func TestPolyDispatchTrees(t *testing.T) {
	t.Run("P01", func(t *testing.T) {
		requireMethodWays(t, "P01", 2)
	})
	t.Run("P02", func(t *testing.T) {
		requireMethodWays(t, "P02", 4)
	})
	t.Run("P03", func(t *testing.T) {
		requireMethodWays(t, "P03", profile.MaxWays)
	})
	t.Run("P04", func(t *testing.T) {
		w, _ := workloads.ByID("P04")
		trans := false
		for _, d := range dispatchTrees(t, w) {
			if d.Kind == ic.KindSet && d.Trans > 0 {
				trans = true
			}
		}
		if !trans {
			t.Error("no transition-speculating store dispatch tree in P04's run()")
		}
	})
	t.Run("P05", func(t *testing.T) {
		w, _ := workloads.ByID("P05")
		if trees := dispatchTrees(t, w); len(trees) != 0 {
			t.Errorf("megamorphic control grew %d dispatch trees: %+v", len(trees), trees)
		}
	})
}

func requireMethodWays(t *testing.T, id string, ways int) {
	t.Helper()
	w, ok := workloads.ByID(id)
	if !ok {
		t.Fatalf("workload %s missing", id)
	}
	found := false
	for _, d := range dispatchTrees(t, w) {
		if d.Kind == ic.KindMethod && d.Name == "m" {
			found = true
			if d.Ways != ways {
				t.Errorf("method site dispatches %d ways, want %d", d.Ways, ways)
			}
		}
	}
	if !found {
		t.Error("no method dispatch tree in run()'s compiled code")
	}
}

// steadyCycles measures steady-state cycles per rep for w with the IC
// subsystem on or off (the A/B surface behind vm.Config.DisableIC).
func steadyCycles(t *testing.T, w workloads.Workload, disableIC bool) float64 {
	t.Helper()
	v, _ := newPolyEngine(vm.ArchNoMap, profile.TierFTL, disableIC)
	runPoly(t, w, v, 60)
	v.ResetCounters()
	for i := 0; i < 20; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatalf("%s measure: %v", w.ID, err)
		}
	}
	return float64(v.Counters().TotalCycles()) / 20
}

// The dispatch trees must pay for themselves: the geomean speedup of
// IC-on over IC-off across the polymorphic suite (and the C04 inlining
// control) must exceed 1.00x, while the megamorphic control — which never
// grows a tree — must be unaffected by the switch.
func TestPolySpeedupOverGenericDispatch(t *testing.T) {
	ids := []string{"P01", "P02", "P03", "P04", "C04"}
	logSum := 0.0
	for _, id := range ids {
		w, ok := workloads.ByID(id)
		if !ok {
			t.Fatalf("workload %s missing", id)
		}
		off := steadyCycles(t, w, true)
		on := steadyCycles(t, w, false)
		ratio := off / on
		t.Logf("%s: %.0f cycles generic, %.0f cycles with IC (%.2fx)", id, off, on, ratio)
		logSum += math.Log(ratio)
		if id == "C04" && ratio <= 1.0 {
			t.Errorf("C04 must improve above 1.00x with dispatch trees, got %.3fx", ratio)
		}
	}
	if geomean := math.Exp(logSum / float64(len(ids))); geomean <= 1.0 {
		t.Errorf("polymorphic-suite geomean speedup %.3fx, want > 1.00x", geomean)
	}

	w, _ := workloads.ByID("P05")
	off := steadyCycles(t, w, true)
	on := steadyCycles(t, w, false)
	if ratio := off / on; ratio < 0.98 || ratio > 1.02 {
		t.Errorf("megamorphic control shifted %.3fx under the IC switch, want within 2%%", ratio)
	}
}
