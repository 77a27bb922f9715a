package nomap

import (
	"math"
	"strings"
	"testing"

	"nomap/internal/governor"
	"nomap/internal/harness"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// Speculative-inlining acceptance tests. The inliner flattens monomorphic
// direct calls into the caller's IR under a depth/size budget, rewrites the
// flattened code's stack maps with inline-frame metadata, and leaves the
// callee guard in place. These tests pin the four promises the pass makes:
// it fires where it should (and only there), a deopt inside inlined code
// reconstructs the full frame stack, it removes the §V-C HadCalls blame
// from call-heavy transactions, and it is worth >= 20% of simulated cycles
// on the call-heavy suite.

// newInlineVM builds a NoMap-style engine with the inliner on or off.
func newInlineVM(arch vm.Arch, disableInlining bool) (*vm.VM, *jit.Backend) {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = harness.FastPolicy()
	cfg.DisableInlining = disableInlining
	v := vm.New(cfg)
	return v, jit.Attach(v)
}

// compiledFunc finds the cached artifact for the named function, preferring
// the invocation-entry artifact when both it and OSR artifacts exist.
func compiledFunc(b *jit.Backend, name string) *ir.Func {
	var osr *ir.Func
	for _, f := range b.CompiledFunctions() {
		if f.Name != name {
			continue
		}
		if f.OSREntryPC < 0 {
			return f
		}
		osr = f
	}
	return osr
}

// TestInliningFlattensMonomorphicCalls: the monomorphic call-heavy
// workloads must compile with flattened callees — C03's chain at depth 2 —
// while the polymorphic control compiles through its dispatch tree: both
// ways of the 2-way site inline behind their callee guards.
func TestInliningFlattensMonomorphicCalls(t *testing.T) {
	wantDepth := map[string]int{"C01": 1, "C02": 1, "C03": 2, "C04": 1}
	for _, id := range []string{"C01", "C02", "C03", "C04"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByID(id)
			if !ok {
				t.Fatalf("unknown workload %s", id)
			}
			v, b := newInlineVM(vm.ArchNoMap, false)
			if _, err := v.Run(w.Source); err != nil {
				t.Fatalf("setup: %v", err)
			}
			for i := 0; i < 60; i++ {
				if _, err := v.CallGlobal("run"); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			f := compiledFunc(b, "run")
			if f == nil {
				t.Fatal("run was never compiled to a speculative tier")
			}
			depth := 0
			for _, inf := range f.Inlines {
				if inf.Depth > depth {
					depth = inf.Depth
				}
			}
			if want := wantDepth[id]; depth != want {
				t.Errorf("max inline depth = %d (inlines %d), want %d", depth, len(f.Inlines), want)
			}
			if id == "C04" && len(f.Inlines) != 2 {
				t.Errorf("polymorphic site inlined %d activations, want 2 (one per dispatch way)", len(f.Inlines))
			}
		})
	}
}

// depthShot fails the first SMP-carrying check it sees at inline depth >= 2
// (an inline path with at least two "callee@pc" segments), then goes inert.
type depthShot struct {
	fired bool
	site  machine.Site
}

func (s *depthShot) At(site machine.Site) machine.Action {
	if s.fired || site.Kind != machine.SiteCheck || !site.HasSMP ||
		strings.Count(site.Inline, "/") < 1 {
		return machine.ActNone
	}
	s.fired = true
	s.site = site
	return machine.ActFailCheck
}

// inlineChainSrc is a single-invocation hot loop over a two-deep
// monomorphic call chain: the loop OSR-enters optimized code with inner
// inlined through outer, so a failed check inside inner sits at inline
// depth 2 and its deopt must reconstruct three frames (run, outer, inner)
// and resume each in the interpreter tiers.
const inlineChainSrc = `
function inner(a, b) { return ((a * b + 3) | 0) & 1023; }
function outer(a, b) { return inner(a, a + b) + inner(b, a + 1); }
function run() {
  var s = 0;
  for (var i = 0; i < 30000; i++) s = s + outer(i & 31, i & 15);
  return s;
}`

// TestInlineDepth2DeoptReconstruction forces a deopt at inline depth 2 and
// demands the reconstructed execution be indistinguishable from the pure
// interpreter: same result, and the root function's profile counters
// (invocations, back edges) exactly match — the back edges of the squashed
// iterations must roll back with the frames and be re-counted by the
// resumed interpreter frames, not lost or double-counted.
func TestInlineDepth2DeoptReconstruction(t *testing.T) {
	wantRes, _, interpVM := runSingleCall(t, inlineChainSrc, vm.ArchBase, profile.TierInterp)

	// ArchBase keeps every check's SMP (no transactions), so the injected
	// failure takes the multi-frame deopt path rather than a tx abort.
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchBase
	v := vm.New(cfg)
	b := jit.Attach(v)
	shot := &depthShot{}
	b.Machine().SetInjector(shot)
	if _, err := v.Run(inlineChainSrc); err != nil {
		t.Fatalf("setup: %v", err)
	}
	r, err := v.CallGlobal("run")
	if err != nil {
		t.Fatalf("run(): %v", err)
	}

	if !shot.fired {
		t.Fatal("no SMP check at inline depth >= 2 was ever executed; reconstruction untested")
	}
	t.Logf("injected deopt at %s", shot.site)
	if got := r.ToStringValue(); got != wantRes {
		t.Fatalf("result after depth-2 deopt = %q, want %q", got, wantRes)
	}
	if v.Counters().Deopts == 0 {
		t.Fatal("injected check failure produced no deopt")
	}
	want := profileOf(t, interpVM, "run")
	got := profileOf(t, v, "run")
	if got.InvocationCount != want.InvocationCount {
		t.Errorf("InvocationCount = %d through inline deopt, %d in interpreter",
			got.InvocationCount, want.InvocationCount)
	}
	if got.BackEdgeCount != want.BackEdgeCount {
		t.Errorf("BackEdgeCount = %d through inline deopt, %d in interpreter",
			got.BackEdgeCount, want.BackEdgeCount)
	}
	_ = b
}

// inlineAbortStorm fails an in-transaction check inside inlined code (an
// abort-converted site: no SMP, inline path non-empty) on every visit until
// its shot budget runs out. Driving one site past the governor's
// CheckAbortBudget forces a surgical SMP restoration keyed by inline path.
type inlineAbortStorm struct {
	shots int
	path  string
}

func (s *inlineAbortStorm) At(site machine.Site) machine.Action {
	if s.shots <= 0 || site.Kind != machine.SiteCheck || site.HasSMP ||
		!site.InTx || site.Inline == "" {
		return machine.ActNone
	}
	if s.path == "" {
		s.path = site.Inline
	} else if site.Inline != s.path {
		return machine.ActNone
	}
	s.shots--
	return machine.ActFailCheck
}

// TestGovernorInlinePathLedgerReset: an abort storm at one inlined site
// must land a keep-set entry and a site ledger keyed by the inline path —
// distinct from any same-pc site in the root code — and SetGovernorPolicy
// (the A/B reset surface) must clear those path-keyed ledgers along with
// everything else, exactly like the machine-attribution reset.
func TestGovernorInlinePathLedgerReset(t *testing.T) {
	w, ok := workloads.ByID("C01")
	if !ok {
		t.Fatal("C01 not registered")
	}
	v, b := newInlineVM(vm.ArchNoMap, false)
	storm := &inlineAbortStorm{shots: 6} // CheckAbortBudget(4) + slack
	b.Machine().SetInjector(storm)
	if _, err := v.Run(w.Source); err != nil {
		t.Fatalf("setup: %v", err)
	}
	for i := 0; i < 80; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if storm.shots > 0 {
		t.Fatalf("storm fired only %d of its shots; no inlined in-tx site was visited", 6-storm.shots)
	}
	var kept, ledgered bool
	for _, fr := range b.Governor().Export() {
		for _, s := range fr.Sites {
			if s.Key.Path == storm.path {
				ledgered = true
				kept = kept || s.On
			}
		}
	}
	if !ledgered {
		t.Fatalf("no governor site ledger keyed by inline path %q", storm.path)
	}
	if !kept {
		t.Errorf("abort storm at %q did not restore the site's SMP", storm.path)
	}

	b.SetGovernorPolicy(governor.DefaultPolicy(true))
	if rep := b.Governor().Export(); len(rep) != 0 {
		t.Errorf("inline-path ledgers survived SetGovernorPolicy: %+v", rep)
	}
	if keep := b.Governor().KeepSet("run"); keep != nil {
		t.Errorf("path-keyed keep set survived SetGovernorPolicy: %v", keep)
	}
}

// TestTraceGoldenInline pins the event stream of the depth-2 injected deopt:
// the compile events, the OSR entry, and — the point of the golden — the
// deopt event carrying its inline path, which is the trace-visible proof
// that the engine reconstructed a multi-depth frame stack.
func TestTraceGoldenInline(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchBase
	v := vm.New(cfg)
	b := jit.Attach(v)
	var lines []string
	b.Machine().SetTracer(func(e machine.Event) { lines = append(lines, e.String()) })
	b.Machine().SetInjector(&depthShot{})
	if _, err := v.Run(inlineChainSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "inline=") {
		t.Fatalf("trace shows no inline-path deopt:\n%s", joined)
	}
	checkGolden(t, "trace_inline.golden", lines)
}

// TestInliningCycleReduction is the headline perf claim: on the call-heavy
// suite, inlining must be worth at least 20% of steady-state simulated
// cycles (geomean) against the same engine with the pass disabled.
func TestInliningCycleReduction(t *testing.T) {
	steady := func(w workloads.Workload, disable bool) int64 {
		v, _ := newInlineVM(vm.ArchNoMap, disable)
		if _, err := v.Run(w.Source); err != nil {
			t.Fatalf("%s setup: %v", w.ID, err)
		}
		for i := 0; i < 60; i++ {
			if _, err := v.CallGlobal("run"); err != nil {
				t.Fatalf("%s warmup: %v", w.ID, err)
			}
		}
		v.ResetCounters()
		for i := 0; i < 10; i++ {
			if _, err := v.CallGlobal("run"); err != nil {
				t.Fatalf("%s measure: %v", w.ID, err)
			}
		}
		return v.Counters().TotalCycles()
	}
	logRatioSum, n := 0.0, 0
	for _, w := range workloads.CallHeavy() {
		off := steady(w, true)
		on := steady(w, false)
		t.Logf("%s (%s): %d cycles off, %d on (%.2fx)", w.ID, w.Name, off, on, float64(off)/float64(on))
		logRatioSum += math.Log(float64(off) / float64(on))
		n++
	}
	geomean := math.Exp(logRatioSum / float64(n))
	t.Logf("geomean speedup from inlining: %.2fx", geomean)
	if geomean < 1.25 { // 1/(1-0.20) = 1.25x
		t.Errorf("inlining geomean speedup %.2fx on the call-heavy suite, want >= 1.25x (20%% cycle reduction)", geomean)
	}
}

// TestInliningClearsCallBlame: C05's transactions overflow capacity while
// containing a call. Without inlining the first such abort carries §V-C
// HadCalls blame and pins the function to TxOff — steady state runs with no
// transactions at all. With inlining the call disappears from the
// transaction body, the blame counter stays zero, and the governor retreats
// through tiling, so steady state still commits (tiled) transactions.
func TestInliningClearsCallBlame(t *testing.T) {
	w, ok := workloads.ByID("C05")
	if !ok {
		t.Fatal("C05 not registered")
	}
	run := func(disable bool) *vm.VM {
		v, _ := newInlineVM(vm.ArchNoMap, disable)
		if _, err := v.Run(w.Source); err != nil {
			t.Fatalf("setup: %v", err)
		}
		for i := 0; i < 60; i++ {
			if _, err := v.CallGlobal("run"); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		return v
	}

	off := run(true)
	if n := off.Counters().TxCallBlamedAborts; n == 0 {
		t.Error("without inlining, no capacity abort carried HadCalls blame; the comparison is vacuous")
	}
	on := run(false)
	if n := on.Counters().TxCallBlamedAborts; n != 0 {
		t.Errorf("with inlining, %d capacity aborts still blamed a call inside the transaction, want 0", n)
	}

	// The blame difference must show up as policy: measure one steady-state
	// call after warm-up under each engine.
	off.ResetCounters()
	on.ResetCounters()
	if _, err := off.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}
	if _, err := on.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}
	if n := off.Counters().TxBegins; n != 0 {
		t.Errorf("without inlining, steady state still begins %d transactions; HadCalls should have pinned TxOff", n)
	}
	if n := on.Counters().TxCommits; n == 0 {
		t.Error("with inlining, steady state commits no transactions; expected a tiled-transaction regime")
	}
}
