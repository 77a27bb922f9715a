package workloads_test

import (
	"testing"

	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func engineConfig(arch vm.Arch, maxTier profile.Tier) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = maxTier
	// Fast tier-up keeps the test quick without changing steady state.
	cfg.Policy = profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 16}
	return cfg
}

func newEngine(arch vm.Arch, maxTier profile.Tier) *vm.VM {
	v := vm.New(engineConfig(arch, maxTier))
	jit.Attach(v)
	return v
}

func runWorkload(t *testing.T, w workloads.Workload, arch vm.Arch, maxTier profile.Tier, calls int) (*vm.VM, value.Value) {
	t.Helper()
	v := newEngine(arch, maxTier)
	if _, err := v.Run(w.Source); err != nil {
		t.Fatalf("%s setup: %v", w.ID, err)
	}
	return v, callRun(t, w, v, calls)
}

// callRun invokes the loaded workload's run() calls times and returns the
// last result.
func callRun(t *testing.T, w workloads.Workload, v *vm.VM, calls int) value.Value {
	t.Helper()
	var last value.Value
	for i := 0; i < calls; i++ {
		r, err := v.CallGlobal("run")
		if err != nil {
			t.Fatalf("%s run #%d under %v: %v", w.ID, i, v.Config().Arch, err)
		}
		last = r
	}
	return last
}

func TestSuiteSizes(t *testing.T) {
	if n := len(workloads.SunSpider()); n != 26 {
		t.Errorf("SunSpider has %d workloads, want 26", n)
	}
	if n := len(workloads.Kraken()); n != 14 {
		t.Errorf("Kraken has %d workloads, want 14", n)
	}
	if n := len(workloads.Shootout()); n != 11 {
		t.Errorf("Shootout has %d workloads, want 11", n)
	}
	// Paper Table III: 16 SunSpider and 9 Kraken benchmarks in AvgS.
	if n := len(workloads.AvgS(workloads.SunSpider())); n != 16 {
		t.Errorf("SunSpider AvgS has %d, want 16", n)
	}
	if n := len(workloads.AvgS(workloads.Kraken())); n != 9 {
		t.Errorf("Kraken AvgS has %d, want 9", n)
	}
}

func TestByID(t *testing.T) {
	w, ok := workloads.ByID("S18")
	if !ok || w.Name != "math-cordic" {
		t.Errorf("ByID(S18) = %+v, %v", w, ok)
	}
	if _, ok := workloads.ByID("S99"); ok {
		t.Error("ByID(S99) should not exist")
	}
}

// Every workload must run deterministically: same result on repeated calls
// (steady-state measurement depends on this).
func TestWorkloadsDeterministic(t *testing.T) {
	all := append(append(workloads.SunSpider(), workloads.Kraken()...), workloads.Shootout()...)
	for _, w := range all {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			v := newEngine(vm.ArchBase, profile.TierInterp)
			if _, err := v.Run(w.Source); err != nil {
				t.Fatalf("setup: %v", err)
			}
			a, err := v.CallGlobal("run")
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := v.CallGlobal("run")
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.ToStringValue() != b.ToStringValue() {
				t.Errorf("nondeterministic: %q then %q", a, b)
			}
		})
	}
}

// The OSR suite's single-invocation hot loops must agree across every
// architecture for one cold call — the call that tiers up mid-execution via
// OSR entry. (They are excluded from the 50-call matrix above on purpose:
// their heat is all inside one invocation.)
func TestOSRWorkloadsAgreeAcrossArchs(t *testing.T) {
	for _, w := range workloads.OSREntry() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			_, want := runWorkload(t, w, vm.ArchBase, profile.TierInterp, 1)
			for _, arch := range vm.AllArchs {
				v, got := runPrinted(t, w, engineConfig(arch, profile.TierFTL), "", nil, 1)
				if got.ToStringValue() != want.ToStringValue() {
					t.Errorf("%v: result %q, want %q", arch, got, want)
				}
				if arch == vm.ArchNoMap && v.Counters().OSREntries == 0 {
					t.Errorf("%v: single call recorded no OSR entries", arch)
				}
			}
		})
	}
}

// The same result must come out of every architecture configuration after
// warm-up — transactions, aborts, and check removal are semantics-preserving.
func TestWorkloadsAgreeAcrossArchs(t *testing.T) {
	all := append(append(workloads.SunSpider(), workloads.Kraken()...), workloads.Shootout()...)
	for _, w := range all {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			_, want := runWorkload(t, w, vm.ArchBase, profile.TierInterp, 2)
			for _, arch := range vm.AllArchs {
				_, got := runPrinted(t, w, engineConfig(arch, profile.TierFTL), "", nil, 50)
				if got.ToStringValue() != want.ToStringValue() {
					t.Errorf("%v: result %q, want %q", arch, got, want)
				}
			}
		})
	}
}

// The call-heavy suite must agree across every architecture — with the
// inliner active (the default) and with it disabled — so speculative call
// inlining is semantics-preserving on exactly the programs built to
// exercise it, including the polymorphic negative control.
func TestCallHeavyAgreeAcrossArchs(t *testing.T) {
	for _, w := range workloads.CallHeavy() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			_, want := runWorkload(t, w, vm.ArchBase, profile.TierInterp, 2)
			for _, arch := range vm.AllArchs {
				_, got := runPrinted(t, w, engineConfig(arch, profile.TierFTL), "", nil, 50)
				if got.ToStringValue() != want.ToStringValue() {
					t.Errorf("%v: result %q, want %q", arch, got, want)
				}
			}
			cfg := engineConfig(vm.ArchNoMap, profile.TierFTL)
			cfg.DisableInlining = true
			if _, got := runPrinted(t, w, cfg, "no-inline", nil, 50); got.ToStringValue() != want.ToStringValue() {
				t.Errorf("inlining-off: result %q, want %q", got, want)
			}
		})
	}
}

// AvgS workloads must actually exercise the FTL tier (that is why the paper
// includes them), and each one's run() must be dominated by FTL
// instructions under the Base configuration.
func TestAvgSReachesFTL(t *testing.T) {
	avgs := append(workloads.AvgS(workloads.SunSpider()), workloads.AvgS(workloads.Kraken())...)
	for _, w := range avgs {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			v, _ := runWorkload(t, w, vm.ArchBase, profile.TierFTL, 50)
			v.ResetCounters()
			if _, err := v.CallGlobal("run"); err != nil {
				t.Fatal(err)
			}
			if v.Counters().FTLCalls == 0 {
				t.Errorf("steady state executed no FTL code")
			}
		})
	}
}
