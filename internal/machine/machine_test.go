package machine_test

import (
	"testing"

	"nomap/internal/htm"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

func newEngine(arch vm.Arch) *vm.VM {
	v, _ := newEngineBackend(arch)
	return v
}

func newEngineBackend(arch vm.Arch) (*vm.VM, *jit.Backend) {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 16}
	v := vm.New(cfg)
	return v, jit.Attach(v)
}

// newEngineNoInline disables speculative call inlining, for tests that
// exercise real call-inside-transaction behaviour (the inliner would
// otherwise flatten the callee and the call disappears).
func newEngineNoInline(arch vm.Arch) *vm.VM {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 16}
	cfg.DisableInlining = true
	v := vm.New(cfg)
	jit.Attach(v)
	return v
}

func warm(t *testing.T, v *vm.VM, src string, calls int, args ...value.Value) value.Value {
	t.Helper()
	if _, err := v.Run(src); err != nil {
		t.Fatal(err)
	}
	var last value.Value
	for i := 0; i < calls; i++ {
		r, err := v.CallGlobal("run", args...)
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	return last
}

// A transaction abort must roll back every store performed inside the
// transaction — including stores done by Baseline callees — and Baseline
// re-execution must produce the correct final state.
func TestAbortRollsBackHeapWrites(t *testing.T) {
	src := `
var a = [];
for (var i = 0; i < 32; i++) a[i] = i;
var sideEffects = {count: 0};
function run(n) {
  for (var i = 0; i < n; i++) {
    a[i] = a[i] + 1;
    sideEffects.count = sideEffects.count + 1;
  }
  return a[n - 1];
}
`
	v := newEngine(vm.ArchNoMap)
	warm(t, v, src, 60, value.Int(32))
	base := v.Counters().TxAborts
	// Poison element 16 with a string: the int32 speculation fails inside
	// the transaction, aborts, and Baseline re-executes.
	if _, err := v.Run(`a[16] = "x";`); err != nil {
		t.Fatal(err)
	}
	before := v.Globals().Get("sideEffects").Object().Get("count").ToNumber()
	r, err := v.CallGlobal("run", value.Int(32))
	if err != nil {
		t.Fatal(err)
	}
	after := v.Globals().Get("sideEffects").Object().Get("count").ToNumber()
	if v.Counters().TxAborts <= base {
		t.Fatal("expected a transaction abort from the poisoned element")
	}
	// Exactly one loop's worth of side effects must be visible: the aborted
	// attempt's increments were rolled back, the Baseline re-execution's
	// increments remain.
	if after-before != 32 {
		t.Errorf("side-effect count advanced by %v, want exactly 32 (rollback + one re-execution)", after-before)
	}
	// "x" + 1 concatenates; a[16] becomes "x1". The last element started at
	// 31 and has been incremented by the 60 warm-up calls plus this call.
	if r.ToNumber() != 92 {
		t.Errorf("run result = %v, want 92", r)
	}
	got := v.Globals().Get("a").Object().GetElement(16)
	if got.ToStringValue() != "x1" {
		t.Errorf("a[16] = %q, want \"x1\"", got.ToStringValue())
	}
}

// Instruction classes: Base puts all FTL instructions in NoTM; NoMap moves
// hot-loop instructions to TMOpt; callees invoked from a transaction that
// were compiled without transactions count as TMUnopt.
func TestInstructionClassAttribution(t *testing.T) {
	src := `
var a = [];
for (var i = 0; i < 64; i++) a[i] = i;
function leaf(x) { return x * 2 + 1; }
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += leaf(a[i]);
  return s;
}
`
	// Inlining off: TMUnopt attribution needs leaf to stay an actual call
	// executed from inside the transaction.
	v := newEngineNoInline(vm.ArchNoMap)
	warm(t, v, src, 80, value.Int(64))
	v.ResetCounters()
	warm2 := func() {
		if _, err := v.CallGlobal("run", value.Int(64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		warm2()
	}
	c := v.Counters()
	if c.Instr[stats.TMOpt] == 0 {
		t.Error("expected TMOpt instructions (the transactional loop)")
	}
	if c.Instr[stats.TMUnopt] == 0 {
		t.Error("expected TMUnopt instructions (leaf called from inside the transaction)")
	}
	if c.CyclesTM == 0 {
		t.Error("expected TMTime")
	}

	b := newEngine(vm.ArchBase)
	warm(t, b, src, 80, value.Int(64))
	b.ResetCounters()
	if _, err := b.CallGlobal("run", value.Int(64)); err != nil {
		t.Fatal(err)
	}
	cb := b.Counters()
	if cb.Instr[stats.TMOpt] != 0 || cb.Instr[stats.TMUnopt] != 0 {
		t.Error("Base must have no transactional instruction classes")
	}
	if cb.CyclesTM != 0 {
		t.Error("Base must have no TMTime")
	}
}

// The SOF configuration removes in-transaction overflow checks; an actual
// overflow then aborts (attributed to the sticky flag) and the function
// recompiles with double arithmetic.
func TestSOFAbortOnOverflow(t *testing.T) {
	src := `
function run(x, n) {
  var s = 1;
  for (var i = 0; i < n; i++) s = (s * x) + 1;
  return s;
}
`
	v := newEngine(vm.ArchNoMap)
	// Warm with small values: int32 path, no overflow.
	warm(t, v, src, 60, value.Int(2), value.Int(8))
	if v.Counters().Checks[stats.CheckOverflow] != 0 {
		// Overflow checks inside the transaction are free; executed count
		// must exclude them.
		t.Errorf("SOF config still counts %d overflow checks", v.Counters().Checks[stats.CheckOverflow])
	}
	before := v.Counters().TxSOFAborts
	// Now force an overflow.
	r, err := v.CallGlobal("run", value.Int(7), value.Int(40))
	if err != nil {
		t.Fatal(err)
	}
	if v.Counters().TxSOFAborts <= before {
		t.Error("expected a sticky-overflow abort")
	}
	// Result must still be exact (recomputed with doubles in Baseline).
	want := 1.0
	for i := 0; i < 40; i++ {
		want = want*7 + 1
	}
	if r.ToNumber() != want {
		t.Errorf("result = %v, want %v", r.ToNumber(), want)
	}
}

// RTM capacity: a large write footprint must abort under RTM rules and the
// runtime must retreat until the function runs without transactions.
func TestRTMCapacityRetreat(t *testing.T) {
	src := `
var buf = new Array(8192);
function run() {
  for (var i = 0; i < 8192; i++) buf[i] = i * 3;
  return buf[8191];
}
`
	v := newEngine(vm.ArchNoMapRTM)
	warm(t, v, src, 80)
	c := v.Counters()
	if c.TxCapacityAborts == 0 {
		t.Fatal("64KB of writes must overflow RTM's 32KB L1D write budget")
	}
	// Steady state: transactions removed, no further aborts, TMOpt ~ 0.
	v.ResetCounters()
	for i := 0; i < 10; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
	}
	cs := v.Counters()
	if cs.TxCapacityAborts != 0 {
		t.Errorf("steady state still aborting (%d capacity aborts)", cs.TxCapacityAborts)
	}
	if cs.Instr[stats.TMOpt] != 0 {
		t.Errorf("transactions should be gone; TMOpt=%d", cs.Instr[stats.TMOpt])
	}

	// The lightweight HTM fits the same footprint (64KB < 192KB threshold).
	l := newEngine(vm.ArchNoMap)
	warm(t, l, src, 80)
	l.ResetCounters()
	for i := 0; i < 10; i++ {
		if _, err := l.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
	}
	if l.Counters().Instr[stats.TMOpt] == 0 {
		t.Error("lightweight HTM should keep its transactions")
	}
}

// Lightweight HTM tiling: a footprint exceeding even the L2 budget retreats
// to tiled transactions that commit at back edges instead of disappearing.
func TestROTTilingKeepsTransactions(t *testing.T) {
	src := `
var buf = new Array(40000);
function run() {
  for (var i = 0; i < 40000; i++) buf[i] = i & 1023;
  return buf[39999];
}
`
	v := newEngine(vm.ArchNoMap)
	// Warm past the governor's probationary re-promotion attempts: the
	// footprint never shrinks, so each probe of the innermost level aborts
	// once and doubles the retry window until the level pins at tiled.
	warm(t, v, src, 180)
	v.ResetCounters()
	for i := 0; i < 5; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
	}
	c := v.Counters()
	if c.Instr[stats.TMOpt] == 0 {
		t.Error("tiled transactions should still execute TMOpt code")
	}
	if c.TxCommits <= 5 {
		t.Errorf("tile commits expected (multiple commits per call), got %d", c.TxCommits)
	}
	if c.TxCapacityAborts != 0 {
		t.Errorf("steady state still capacity-aborting: %d", c.TxCapacityAborts)
	}
}

// Irrevocable operations (print) inside a transaction must abort it first
// and still produce their effect exactly once via Baseline re-execution.
func TestIrrevocableAbortsTransaction(t *testing.T) {
	src := `
function run(n, chatty) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s += i;
    if (chatty && i == n - 1) print("s =", s);
  }
  return s;
}
`
	v := newEngine(vm.ArchNoMap)
	warm(t, v, src, 70, value.Int(50), value.Boolean(false))
	before := v.Counters().TxAborts
	r, err := v.CallGlobal("run", value.Int(50), value.Boolean(true))
	if err != nil {
		t.Fatal(err)
	}
	if r.ToNumber() != 1225 {
		t.Errorf("result = %v", r)
	}
	if got := v.Counters().TxAborts; got <= before {
		t.Error("print inside a transaction must abort it")
	}
	if len(v.Output) != 1 || v.Output[0] != "s = 1225" {
		t.Errorf("Output = %q, want exactly one correct line", v.Output)
	}
}

// The RTM read penalty must make in-transaction cycles more expensive than
// the lightweight HTM's for the same read-heavy workload.
func TestRTMReadPenalty(t *testing.T) {
	src := `
var data = new Array(512);
for (var i = 0; i < 512; i++) data[i] = i;
function run() {
  var s = 0;
  for (var j = 0; j < 512; j++) s += data[j];
  return s;
}
`
	measure := func(arch vm.Arch) int64 {
		v := newEngine(arch)
		warm(t, v, src, 80)
		v.ResetCounters()
		for i := 0; i < 20; i++ {
			if _, err := v.CallGlobal("run"); err != nil {
				t.Fatal(err)
			}
		}
		return v.Counters().TotalCycles()
	}
	rot := measure(vm.ArchNoMapB)
	rtm := measure(vm.ArchNoMapRTM)
	if rtm <= rot {
		t.Errorf("RTM cycles (%d) should exceed lightweight HTM cycles (%d): slower reads + commits", rtm, rot)
	}
}

// Capacity rules derived from the paper's cache geometry.
func TestHTMConfigs(t *testing.T) {
	rot := htm.ROTConfig()
	if rot.WriteSets*rot.WriteWays*rot.LineSize != 256<<10 {
		t.Error("ROT write capacity must equal the 256KB L2")
	}
	if rot.ReadSets != 0 {
		t.Error("ROT must not track reads")
	}
	rtm := htm.RTMConfig()
	if rtm.WriteSets*rtm.WriteWays*rtm.LineSize != 32<<10 {
		t.Error("RTM write capacity must equal the 32KB L1D")
	}
	if rtm.ReadSets*rtm.ReadWays*rtm.LineSize != 256<<10 {
		t.Error("RTM read capacity must equal the 256KB L2")
	}
	if rtm.CommitCycles <= rot.CommitCycles {
		t.Error("RTM commit (write drain) must cost more than ROT flash-clear")
	}
}
