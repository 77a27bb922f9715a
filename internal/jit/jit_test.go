package jit_test

import (
	"slices"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// testPolicy tiers up within a few dozen calls.
var testPolicy = profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 16}

func newEngine(arch vm.Arch) (*vm.VM, *jit.Backend) {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = testPolicy
	v := vm.New(cfg)
	b := jit.Attach(v)
	return v, b
}

// newEngineNoInline disables speculative call inlining, for tests that
// exercise real call-inside-transaction semantics (the inliner would
// otherwise flatten the callee and the call disappears).
func newEngineNoInline(arch vm.Arch) (*vm.VM, *jit.Backend) {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = testPolicy
	cfg.DisableInlining = true
	v := vm.New(cfg)
	b := jit.Attach(v)
	return v, b
}

const hotSrc = `
var arr = [];
for (var i = 0; i < 32; i++) arr[i] = i;
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += arr[i];
  return s;
}
`

func drive(t *testing.T, v *vm.VM, calls int) {
	t.Helper()
	for i := 0; i < calls; i++ {
		if _, err := v.CallGlobal("run", value.Int(32)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompilationCaching(t *testing.T) {
	v, _ := newEngine(vm.ArchNoMap)
	if _, err := v.Run(hotSrc); err != nil {
		t.Fatal(err)
	}
	drive(t, v, 100)
	c := v.Counters()
	// One DFG compile and one FTL compile for run(); the cache must prevent
	// recompiling on every call.
	if c.Compilations[profile.TierFTL] != 1 {
		t.Errorf("FTL compilations = %d, want 1", c.Compilations[profile.TierFTL])
	}
	if c.Compilations[profile.TierDFG] != 1 {
		t.Errorf("DFG compilations = %d, want 1", c.Compilations[profile.TierDFG])
	}
}

func TestDeoptInvalidatesAndRecompiles(t *testing.T) {
	v, _ := newEngine(vm.ArchBase)
	if _, err := v.Run(hotSrc); err != nil {
		t.Fatal(err)
	}
	drive(t, v, 100)
	before := v.Counters().Compilations[profile.TierFTL]
	// Type change triggers a deopt in Base (SMP path, no transactions).
	if _, err := v.Run(`arr[7] = 0.25;`); err != nil {
		t.Fatal(err)
	}
	drive(t, v, 20)
	c := v.Counters()
	if c.Deopts == 0 {
		t.Fatal("expected a deoptimization")
	}
	if c.Compilations[profile.TierFTL] <= before {
		t.Error("deopt must invalidate the cached code and recompile")
	}
	// After recompilation with double feedback, steady state is deopt-free.
	v.ResetCounters()
	drive(t, v, 20)
	if v.Counters().Deopts != 0 {
		t.Errorf("still deopting after recompilation: %d", v.Counters().Deopts)
	}
}

func TestCompiledFunctionsExposed(t *testing.T) {
	v, b := newEngine(vm.ArchNoMap)
	// One long call first, so run() holds an OSR artifact next to the
	// invocation-entry artifact the later calls compile; zed() adds a second
	// function.
	if _, err := v.Run(hotSrc + `
function zed(x) { return x + 1; }
function long(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += arr[i & 31];
  return zed(s);
}
`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := v.CallGlobal("long", value.Int(2000)); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, v, 100)
	fns := b.CompiledFunctions()
	foundTx, foundOSR := false, false
	for i, f := range fns {
		foundTx = foundTx || f.TxAware
		foundOSR = foundOSR || f.OSREntryPC >= 0
		if i == 0 {
			continue
		}
		if p := fns[i-1]; p.Name > f.Name || (p.Name == f.Name && p.OSREntryPC >= f.OSREntryPC) {
			t.Errorf("entry %d (%s@%d) sorts before entry %d (%s@%d)", i, f.Name, f.OSREntryPC, i-1, p.Name, p.OSREntryPC)
		}
	}
	if len(fns) < 4 || !foundOSR {
		t.Fatalf("want long (invocation + OSR), run and zed compiled, got %d artifacts (OSR seen: %v)", len(fns), foundOSR)
	}
	if !foundTx {
		t.Error("NoMap-compiled hot function should be transaction-aware")
	}
	// The order is a function of the cached code, not of map iteration.
	for i := 0; i < 20; i++ {
		if again := b.CompiledFunctions(); !slices.Equal(again, fns) {
			t.Fatalf("call %d returned a different order", i)
		}
	}
}

func TestInTransactionReflectsMachine(t *testing.T) {
	v, b := newEngine(vm.ArchNoMap)
	if b.InTransaction() {
		t.Error("no transaction before execution")
	}
	if _, err := v.Run(hotSrc); err != nil {
		t.Fatal(err)
	}
	drive(t, v, 100)
	if b.InTransaction() {
		t.Error("transactions must be closed after calls return")
	}
}

// The footprint ladder: capacity aborts walk loop-nest -> innermost ->
// tiled; transactions with calls go straight to off.
func TestRetreatLadderWithCalls(t *testing.T) {
	src := `
var big = new Array(40000);
function helper(x) { return x | 0; }
function run() {
  for (var i = 0; i < 40000; i++) big[i] = helper(i);
  return big[39999];
}
`
	v, b := newEngineNoInline(vm.ArchNoMap)
	if _, err := v.Run(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
	}
	// 320KB of writes exceeds even the 256KB L2; the loop contains a call
	// (inlining disabled above — the inliner would flatten helper and lift
	// the §V-C blame), so the first capacity abort must remove transactions
	// entirely.
	runFn := v.Globals().Get("run").Object().Fn.Code.(*bytecode.Function)
	if got := b.TxLevelOf(runFn); got != core.TxOff {
		t.Errorf("tx level = %v, want off (overflowing transaction had calls)", got)
	}
	v.ResetCounters()
	for i := 0; i < 5; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
	}
	if v.Counters().TxAborts != 0 {
		t.Error("steady state must not abort once transactions are removed")
	}
}
