package machine_test

import (
	"strings"
	"testing"

	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// recoveryKernel: f's loop runs in a transaction whose element check fails
// on mixed's double, so the call f(mixed, n) aborts and Baseline resumes f at
// the loop's recovery entry. That resume calls g — FTL code at the same
// machine depth as f's activation — whose own loop transaction opens while
// Baseline is still running f's recovery frame.
const recoveryKernel = `
var ints = [1, 2, 3, 4, 5, 6, 7, 8];
var mixed = [1, 2, 3, 4, 5.5, 6, 7, 8];
function g(a) {
  var s = 0;
  for (var j = 0; j < a.length; j++) { s = s + a[j]; }
  return s;
}
function f(a, n) {
  var t = 0;
  for (var i = 0; i < n; i++) { t = t + a[i & 7] * i; }
  return t * 1000 + g(ints);
}
`

// A transaction's recovery frame belongs to the Baseline resume once the
// transaction aborts: a compiled function that resume calls, opening its own
// transaction at the same depth, must not materialize into it.
func TestAbortResumeCallsTransactionalCode(t *testing.T) {
	v := newEngine(vm.ArchNoMap)
	ref := vm.New(refConfig(profile.TierInterp))
	for _, e := range []*vm.VM{v, ref} {
		if _, err := e.Run(recoveryKernel); err != nil {
			t.Fatal(err)
		}
	}
	ints := v.Globals().Get("ints")
	for i := 0; i < 60; i++ {
		if _, err := v.CallGlobal("g", ints); err != nil {
			t.Fatal(err)
		}
		if _, err := v.CallGlobal("f", ints, value.Int(40)); err != nil {
			t.Fatal(err)
		}
	}
	ctrs := v.Counters()
	aborts, begins, ftl := ctrs.TxAborts, ctrs.TxBegins, ctrs.FTLCalls
	got, err := v.CallGlobal("f", v.Globals().Get("mixed"), value.Int(40))
	if err != nil {
		t.Fatal(err)
	}
	if ctrs.TxAborts == aborts || ctrs.TxBegins < begins+2 || ctrs.FTLCalls < ftl+2 {
		t.Fatalf("aborts %d→%d, begins %d→%d, FTL calls %d→%d: want f's transaction aborted and g's FTL code opening its own",
			aborts, ctrs.TxAborts, begins, ctrs.TxBegins, ftl, ctrs.FTLCalls)
	}
	want, err := ref.CallGlobal("f", ref.Globals().Get("mixed"), value.Int(40))
	if err != nil {
		t.Fatal(err)
	}
	if !value.StrictEquals(got, want) {
		t.Errorf("f(mixed) = %v, interpreter %v", got, want)
	}
}

func refConfig(tier profile.Tier) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = tier
	return cfg
}

// builtinErrorKernel raises a builtin's own error per mode, from a branch
// the warm-up never takes (modes 1 and 3: generic method calls) or from a
// call the warm-up made a direct call to the Array builtin (mode 2).
const builtinErrorKernel = `
var mode = 0;
var empty = [];
var len = 3;
function add(a, b) { return a + b; }
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    if (mode == 2) len = 2.5;
    s = s + Array(len).length;
    if (mode == 1) s = s + empty.reduce(add);
    if (mode == 3) s = s + "x".repeat(-1).length;
  }
  return s;
}
`

// A builtin's own error names the call site that invoked the builtin — its
// function and line — with the same text from FTL code, in and out of a
// transaction, as from Baseline.
func TestBuiltinErrorsCarryCallSite(t *testing.T) {
	wantMsg := map[int]string{
		1: "(line 11): reduce of empty array with no initial value",
		2: "(line 10): RangeError: Invalid array length",
		3: "(line 12): repeat count must be non-negative",
	}
	for _, arch := range []vm.Arch{vm.ArchBase, vm.ArchNoMap} {
		for mode := 1; mode <= 3; mode++ {
			v := newEngine(arch)
			warm(t, v, builtinErrorKernel, 60, value.Int(4))
			ref := vm.New(refConfig(profile.TierBaseline))
			warm(t, ref, builtinErrorKernel, 1, value.Int(4))

			calls := v.Counters().FTLCalls
			var errs [2]error
			for i, e := range []*vm.VM{v, ref} {
				e.Globals().Set("mode", value.Int(int32(mode)))
				_, errs[i] = e.CallGlobal("run", value.Int(4))
			}
			if v.Counters().FTLCalls == calls {
				t.Fatalf("%v mode %d: the failing call did not enter FTL code", arch, mode)
			}
			got, want := errs[0], errs[1]
			if want == nil || !strings.HasPrefix(want.Error(), "runtime error in run ") || !strings.HasSuffix(want.Error(), wantMsg[mode]) {
				t.Fatalf("%v mode %d: Baseline raised %v, want run's call site and %q", arch, mode, want, wantMsg[mode])
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%v mode %d:\n got  %v\n want %v", arch, mode, got, want)
			}
		}
	}
}

// inlineKernel's run inlines its callees, so its artifact has inline frames.
const inlineKernel = `
function sq(x) { return x * x; }
function mix(a, b) { return sq(a) + b; }
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + mix(i, s & 3); }
  return s;
}
`

// Lowering an installed artifact costs at most three allocations, whatever
// its size and inlining.
func TestLowerCompiledAllocations(t *testing.T) {
	v, b := newEngineBackend(vm.ArchNoMap)
	warm(t, v, inlineKernel, 60, value.Int(50))
	inlined := false
	for _, f := range b.CompiledFunctions() {
		inlined = inlined || len(f.Inlines) > 0
		if n := testing.AllocsPerRun(20, func() { machine.Lower(f, profile.TierFTL) }); n > 3 {
			t.Errorf("%s: Lower costs %v allocations, want at most 3", f.Name, n)
		}
	}
	if !inlined {
		t.Error("no compiled artifact has inline frames")
	}
}

// lowered keeps BenchmarkLower's result live.
var lowered machine.Program

// BenchmarkLower lowers every artifact of a warm inlining kernel.
func BenchmarkLower(b *testing.B) {
	v, be := newEngineBackend(vm.ArchNoMap)
	if _, err := v.Run(inlineKernel); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := v.CallGlobal("run", value.Int(50)); err != nil {
			b.Fatal(err)
		}
	}
	fs := be.CompiledFunctions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			lowered = machine.Lower(f, profile.TierFTL)
		}
	}
}
