package machine_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// errorKernel raises one JavaScript error per value of mode, each from a
// branch the warm-up never takes: the optimizing tiers compile those sites
// without feedback, so they run as generic runtime entries (or, for the
// global, as a guarded global load) in machine code. Mode 8 raises inside
// pick, which the warm-up made a monomorphic callee and so an inlining
// candidate.
const errorKernel = `
var mode = 0;
var nothing = null;
var five = 5;
function boom(o) {
  return o.field;
}
function pick(o, m) {
  if (m == 8) return o.field;
  return 1;
}
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = s + i;
    if (mode == 1) s = s + missingGlobal;
    if (mode == 2) s = s + nothing.field;
    if (mode == 3) s = s + five();
    if (mode == 4) s = s + nothing[i];
    if (mode == 5) nothing.field = i;
    if (mode == 6) s = s + boom(nothing);
    if (mode == 7) s = s + new five();
    s = s + pick(nothing, mode);
  }
  return s;
}
`

// An error raised by optimized code outside a transaction is the error the
// bytecode tiers raise for the same operation: the same *bytecode.RuntimeError
// type, attributed to the same function (the inlined callee, not its caller)
// and source line, with the same message. The oracle compares error text
// against an interpreter-only reference, so any difference is a divergence.
func TestOptimizedErrorsMatchBaseline(t *testing.T) {
	refCfg := vm.DefaultConfig()
	refCfg.MaxTier = profile.TierInterp
	for _, tier := range []profile.Tier{profile.TierDFG, profile.TierFTL} {
		for mode := 1; mode <= 8; mode++ {
			cfg := vm.DefaultConfig()
			cfg.Arch = vm.ArchBase
			cfg.MaxTier = tier
			cfg.Policy = profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 16}
			v := vm.New(cfg)
			jit.Attach(v)
			warm(t, v, errorKernel, 60, value.Int(16))
			if c := v.Counters(); c.FTLCalls+c.DFGCalls == 0 {
				t.Fatalf("%v: the kernel never ran in machine code", tier)
			}
			ref := vm.New(refCfg)
			warm(t, ref, errorKernel, 1, value.Int(16))

			var errs [2]error
			for i, e := range []*vm.VM{v, ref} {
				e.Globals().Set("mode", value.Int(int32(mode)))
				_, errs[i] = e.CallGlobal("run", value.Int(16))
			}
			got, want := errs[0], errs[1]
			if want == nil {
				t.Fatalf("mode %d: the reference raised no error", mode)
			}
			var re *bytecode.RuntimeError
			if !errors.As(got, &re) {
				t.Errorf("%v mode %d: error %v (%T), want a *bytecode.RuntimeError", tier, mode, got, got)
				continue
			}
			if got.Error() != want.Error() {
				t.Errorf("%v mode %d:\n got  %v\n want %v", tier, mode, got, want)
			}
		}
	}
}

// arrayLengthKernel constructs an array of length len per iteration, with
// new Array(len) or, when call is set, Array(len).
const arrayLengthKernel = `
var len = 3;
var call = 0;
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    var a;
    if (call) a = Array(len); else a = new Array(len);
    s = s + a.length;
  }
  return s;
}
`

// Array(n) takes n as a length only when n is a valid array length (n ===
// ToUint32(n)) within the engine's cap; any other number, 2^32-1 included,
// raises a RangeError, with the same text
// from FTL code under NoMap as from the interpreter.
func TestArrayLengthRangeError(t *testing.T) {
	refCfg := vm.DefaultConfig()
	refCfg.MaxTier = profile.TierInterp
	for _, length := range []value.Value{value.Int(-1), value.Double(2.5), value.Double(4294967296), value.Double(math.NaN()), value.Double(4294967295)} {
		for _, call := range []int32{0, 1} {
			v, _ := newEngineBackend(vm.ArchNoMap)
			if got := warm(t, v, arrayLengthKernel, 60, value.Int(4)); got != value.Int(12) {
				t.Fatalf("run(4) with length 3 = %v, want 12", got)
			}
			ref := vm.New(refCfg)
			warm(t, ref, arrayLengthKernel, 1, value.Int(4))

			calls := v.Counters().FTLCalls
			var errs [2]error
			for i, e := range []*vm.VM{v, ref} {
				e.Globals().Set("len", length)
				e.Globals().Set("call", value.Int(call))
				_, errs[i] = e.CallGlobal("run", value.Int(4))
			}
			if v.Counters().FTLCalls == calls {
				t.Fatal("the failing call did not enter FTL code")
			}
			got, want := errs[0], errs[1]
			if want == nil || !strings.Contains(want.Error(), "RangeError: Invalid array length") {
				t.Fatalf("length %v, call %d: the interpreter raised %v, want RangeError: Invalid array length", length, call, want)
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("length %v, call %d:\n got  %v\n want %v", length, call, got, want)
			}
		}
	}
}

// mathOperands covers the corners where Math functions disagree most easily:
// signed zeros, halves (round), infinities, NaN and magnitudes past int32.
const mathOperands = `
var xs = [0, -0, 0.5, -0.5, 2.5, -2.5, 3, -7, 0.25, 1e300, -1e-300, 4294967296, Infinity, -Infinity, NaN];
var ys = [2, 0.5, -0, 3, -1, NaN, 0.5, 2, -0.5, 1e-300, 3, -Infinity, 0, 1, 7];
var out = [];
`

// Every entry of the one Math table is inlined as an intrinsic, and the
// intrinsic computes, bit for bit, what the builtin computes on the same
// operands — checked against an interpreter-only engine that only ever calls
// the builtins.
func TestMathIntrinsicsMatchBuiltins(t *testing.T) {
	refCfg := vm.DefaultConfig()
	refCfg.MaxTier = profile.TierInterp
	for _, mf := range value.MathFuncs {
		call := "Math." + mf.Name + "(xs[i])"
		if mf.Arity == 2 {
			call = "Math." + mf.Name + "(xs[i], ys[i])"
		}
		src := mathOperands + "function run(n) {\n  for (var i = 0; i < xs.length; i++) out[i] = " + call + ";\n  return n;\n}\n"
		v, b := newEngineBackend(vm.ArchNoMap)
		warm(t, v, src, 60, value.Int(0))
		calls := v.Counters().FTLCalls
		warm(t, v, "", 1, value.Int(0))
		if v.Counters().FTLCalls == calls {
			t.Fatalf("Math.%s: the last call did not run FTL code", mf.Name)
		}
		ref := vm.New(refCfg)
		warm(t, ref, src, 1, value.Int(0))

		inlined := false
		for _, f := range b.CompiledFunctions() {
			for _, blk := range f.Blocks {
				for _, iv := range blk.Values {
					inlined = inlined || iv.Op == ir.OpMathOp && iv.AuxStr == mf.Name
				}
			}
		}
		if !inlined {
			t.Errorf("Math.%s: no compiled artifact inlines it", mf.Name)
		}
		got, want := elementsOf(v, "out"), elementsOf(ref, "out")
		if len(got) != len(want) {
			t.Fatalf("Math.%s: %d results, reference %d", mf.Name, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			same := g.Kind() == w.Kind() && (math.Float64bits(g.ToNumber()) == math.Float64bits(w.ToNumber()) ||
				math.IsNaN(g.ToNumber()) && math.IsNaN(w.ToNumber()))
			if !same {
				t.Errorf("Math.%s operand %d: intrinsic %v (%v), builtin %v (%v)", mf.Name, i, g, g.Kind(), w, w.Kind())
			}
		}
	}
}
