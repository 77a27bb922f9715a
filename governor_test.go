package nomap

import (
	"testing"

	"nomap/internal/core"
	"nomap/internal/jit"
	"nomap/internal/oracle"
	"nomap/internal/profile"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// Governor acceptance tests: each adversarial workload (A01..A04) defeats a
// naive post-abort policy in a different way, and the governor must recover
// surgically — restoring one SMP instead of burning the deopt budget,
// re-promoting after a phase change, and keeping the FTL tier when only the
// transactions were the problem.

// newGovVM builds an FTL-capable engine with a deopt budget high enough that
// a storm stays visible rather than being capped by a tier ban.
func newGovVM(t *testing.T, arch vm.Arch) (*vm.VM, *jit.Backend) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = profile.TierFTL
	cfg.Policy = profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 200}
	v := vm.New(cfg)
	return v, jit.Attach(v)
}

// The paper's one-way §V-C policy (every non-capacity transfer charged to the
// whole-function budget, no SMP restoration, no re-promotion) on A01 over 120
// calls, measured on the last commit that still carried it: one abort and one
// FTL recompile per storming call. EXPERIMENTS.md has the full table.
const (
	oneWayA01Aborts      = 80
	oneWayA01FTLCompiles = 80
)

func runWorkload(t *testing.T, v *vm.VM, w workloads.Workload, calls int) string {
	t.Helper()
	if _, err := v.Run(w.Source); err != nil {
		t.Fatalf("%s setup: %v", w.ID, err)
	}
	var last string
	for i := 0; i < calls; i++ {
		r, err := v.CallGlobal("run")
		if err != nil {
			t.Fatalf("%s call %d: %v", w.ID, i, err)
		}
		last = r.ToStringValue()
	}
	return last
}

func mustWorkload(t *testing.T, id string) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByID(id)
	if !ok {
		t.Fatalf("unknown workload %s", id)
	}
	return w
}

// TestAbortStormSMPRestoration: A01's combined bounds check fails on every
// call once the loop's trip count drops to zero, and no feedback refresh can
// heal it. The governor must silence the storm by restoring that one SMP —
// keeping the function at full transaction level with a bounded number of
// recompiles — and cut total aborts at least 10x against the one-way policy.
func TestAbortStormSMPRestoration(t *testing.T) {
	w := mustWorkload(t, "A01")
	const calls = 120

	vGov, bGov := newGovVM(t, vm.ArchNoMap)
	resGov := runWorkload(t, vGov, w, calls)
	icfg := vm.DefaultConfig()
	icfg.MaxTier = profile.TierInterp
	if resRef := runWorkload(t, vm.New(icfg), w, calls); resGov != resRef {
		t.Fatalf("governor changed results: %q vs interpreter %q", resGov, resRef)
	}

	cg := vGov.Counters()
	if oneWayA01Aborts < 10*cg.TxAborts || cg.TxAborts == 0 {
		t.Errorf("aborts: governor=%d one-way=%d, want >=10x reduction", cg.TxAborts, oneWayA01Aborts)
	}
	// The storm is a site problem, not a footprint problem: the transaction
	// level must not retreat.
	if lvl := bGov.Governor().LevelFor("run"); lvl != core.TxLoopNest {
		t.Errorf("level = %v after check storm, want loop-nest", lvl)
	}
	if bGov.Governor().KeepSet("run") == nil {
		t.Error("no SMP restored for the storming site")
	}
	// Bounded recompilation: one compile per pre-budget abort plus the
	// keep-set recompile — not one per call like the one-way policy.
	budget := bGov.Governor().Policy().CheckAbortBudget
	if cg.Compilations[profile.TierFTL] > budget+2 {
		t.Errorf("governor FTL compiles = %d, want <= %d", cg.Compilations[profile.TierFTL], budget+2)
	}
	if oneWayA01FTLCompiles < 10*cg.Compilations[profile.TierFTL] {
		t.Errorf("governor FTL compiles = %d, want a 10x reduction from the one-way policy's %d",
			cg.Compilations[profile.TierFTL], oneWayA01FTLCompiles)
	}
	// The wasted-work ledger attributes the squashed cycles to check aborts.
	if cg.CyclesSquashed == 0 || cg.CyclesSquashedBy[0] != cg.CyclesSquashed {
		t.Errorf("squashed ledger: total=%d by-check=%d, want all check-attributed",
			cg.CyclesSquashed, cg.CyclesSquashedBy[0])
	}
}

// TestPhaseChangeRepromotion: A03's first calls overflow capacity and drive
// the §V-C retreat; the footprint then shrinks permanently. The governor
// must climb back to loop-nest via probation and commit transactions in
// steady state, where the paper's one-way retreat stayed at tiled forever.
func TestPhaseChangeRepromotion(t *testing.T) {
	w := mustWorkload(t, "A03")
	v, b := newGovVM(t, vm.ArchNoMap)
	runWorkload(t, v, w, 200)
	if lvl := b.Governor().LevelFor("run"); lvl != core.TxLoopNest {
		t.Fatalf("level = %v after phase change, want re-promoted loop-nest", lvl)
	}
	// Steady state at the re-promoted level: transactions commit, no aborts.
	// (Call run() directly — re-running the setup would reset phaseCalls and
	// restart the big phase.)
	v.ResetCounters()
	for i := 0; i < 20; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatalf("steady-state call %d: %v", i, err)
		}
	}
	c := v.Counters()
	if c.TxCommits == 0 {
		t.Error("no commits in steady state after re-promotion")
	}
	if c.TxAborts != 0 {
		t.Errorf("%d aborts in steady state, want 0", c.TxAborts)
	}
}

// TestIrrevocableKeepsFTL: A04's print() aborts irrevocably on the first
// transactional run. The governor drops the function to TxOff, pinned, and
// keeps the FTL tier without charging the deopt budget — one abort total.
func TestIrrevocableKeepsFTL(t *testing.T) {
	w := mustWorkload(t, "A04")
	v, b := newGovVM(t, vm.ArchNoMap)
	runWorkload(t, v, w, 120)
	c := v.Counters()
	if c.TxIrrevocableAborts != 1 || c.TxAborts != 1 {
		t.Errorf("aborts = %d (irrevocable %d), want exactly 1", c.TxAborts, c.TxIrrevocableAborts)
	}
	if lvl := b.Governor().LevelFor("run"); lvl != core.TxOff {
		t.Errorf("level = %v, want off", lvl)
	}
	rep := b.Governor().Export()
	if len(rep) != 1 || !rep[0].Pinned {
		t.Errorf("function not pinned: %+v", rep)
	}
	if c.Deopts != 0 {
		t.Errorf("deopt budget charged %d times for an irrevocable abort", c.Deopts)
	}
	if c.FTLCalls < 50 {
		t.Errorf("FTLCalls = %d: function lost the FTL tier", c.FTLCalls)
	}
	if c.TxBegins != 1 {
		t.Errorf("TxBegins = %d after pinning to TxOff, want 1", c.TxBegins)
	}
}

// maxA01SquashedCycles bounds A01's wasted work over 200 calls. Surgical SMP
// restoration squashes at most CheckAbortBudget aborts' worth of work;
// aborting on every call squashes ~50 cycles per call forever, so a
// governor regressing toward that crosses this ceiling.
const maxA01SquashedCycles = 1000

// TestGovernorSmoke runs each adversarial workload under the engine protocol
// of `nomap-run -calls`: A01's abort storm must stay under the squashed-cycle
// ceiling, and A04 under NoMap_RTM and A03 must run to completion.
func TestGovernorSmoke(t *testing.T) {
	v, _ := newGovVM(t, vm.ArchNoMap)
	runWorkload(t, v, mustWorkload(t, "A01"), 200)
	if sq := v.Counters().CyclesSquashed; sq > maxA01SquashedCycles {
		t.Errorf("A01: CyclesSquashed %d exceeds ceiling %d", sq, maxA01SquashedCycles)
	}
	v, _ = newGovVM(t, vm.ArchNoMapRTM)
	runWorkload(t, v, mustWorkload(t, "A04"), 120)
	v, _ = newGovVM(t, vm.ArchNoMap)
	runWorkload(t, v, mustWorkload(t, "A03"), 200)
}

// TestGovernorOracleSweep runs the PR-1 fault-injection oracle over the
// phase-change workload with the governor active: injected aborts land
// before, during, and after probationary windows across all six
// architecture configurations, and every run must stay observationally
// equivalent to the interpreter with clean counter invariants.
func TestGovernorOracleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep re-runs the phase-change workload dozens of times")
	}
	t.Parallel()
	w := mustWorkload(t, "A03")
	cfg := oracle.DefaultConfig()
	cfg.CapacityPoints = 1
	cfg.RandomTrials = 2
	rep, err := oracle.Sweep(oracle.Program{Name: w.ID, Setup: w.Source, Calls: 90}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	for _, ar := range rep.Archs {
		if len(ar.Sites) == 0 {
			t.Errorf("%v: no injection sites enumerated", ar.Arch)
		}
	}
	t.Logf("%s: %d sites, %d runs, %d injected aborts",
		rep.Program, rep.TotalSites(), rep.TotalRuns(), rep.TotalInjectedAborts())
}

// TestBackendResetDeterminism is the regression guard for the oracle's
// differential protocol: Reset must return a backend to its post-Attach
// condition, so re-running the same program yields bit-identical counters —
// no governor ledger or cached code may leak between runs.
func TestBackendResetDeterminism(t *testing.T) {
	w := mustWorkload(t, "A01")
	const calls = 60

	// Fresh engine: the reference counter trace.
	vRef, _ := newGovVM(t, vm.ArchNoMap)
	refRes := runWorkload(t, vRef, w, calls)
	ref := *vRef.Counters()

	// Same engine, second pass after Reset: the first pass drove the
	// governor into a restored-SMP state that Reset must fully discard.
	v, b := newGovVM(t, vm.ArchNoMap)
	runWorkload(t, v, w, calls)
	b.Reset()
	v.ResetCounters()
	res := runWorkload(t, v, w, calls)
	got := *v.Counters()

	if res != refRes {
		t.Fatalf("result after Reset: %q, want %q", res, refRes)
	}
	if got != ref {
		t.Errorf("counters diverged after Reset:\n got %+v\nwant %+v", got, ref)
	}
}
