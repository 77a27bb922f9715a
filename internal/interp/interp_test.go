package interp_test

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/frame"
	"nomap/internal/interp"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// warmProfile runs src to completion under Baseline-max tiering and returns
// the profile of the named global function.
func warmProfile(t *testing.T, src, fname string) (*vm.VM, *profile.FunctionProfile) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	v := vm.New(cfg)
	if _, err := v.Run(src); err != nil {
		t.Fatal(err)
	}
	fv := v.Globals().Get(fname)
	if !fv.IsCallable() {
		t.Fatalf("%q is not a function", fname)
	}
	bcFn := fv.Object().Fn.Code.(*bytecode.Function)
	return v, v.ProfileFor(bcFn)
}

func TestArithFeedbackIntOnly(t *testing.T) {
	_, p := warmProfile(t, `
function f(a, b) { return a + b; }
for (var i = 0; i < 50; i++) f(i, i + 1);
`, "f")
	found := false
	for pc := range p.Arith {
		fb := &p.Arith[pc]
		if fb.Count > 0 && fb.IntOnly() {
			found = true
		}
		if fb.SawString || fb.SawDouble {
			t.Errorf("pc %d: unexpected non-int feedback %+v", pc, fb)
		}
	}
	if !found {
		t.Error("no int-only arithmetic feedback recorded")
	}
}

func TestArithFeedbackOverflow(t *testing.T) {
	_, p := warmProfile(t, `
function f() { var x = 2000000000; return x + x; }
for (var i = 0; i < 50; i++) f();
`, "f")
	saw := false
	for pc := range p.Arith {
		if p.Arith[pc].SawOverflow {
			saw = true
		}
	}
	if !saw {
		t.Error("overflowing add must record SawOverflow")
	}
}

func TestArithFeedbackMixed(t *testing.T) {
	_, p := warmProfile(t, `
function f(a, b) { return a + b; }
for (var i = 0; i < 25; i++) f(i, 0.5);
for (var j = 0; j < 25; j++) f("s", j);
`, "f")
	ok := false
	for pc := range p.Arith {
		fb := &p.Arith[pc]
		if fb.Count > 0 && fb.SawDouble && fb.SawString {
			ok = true
			if fb.IntOnly() || fb.NumberOnly() {
				t.Error("mixed feedback must disable numeric speculation")
			}
		}
	}
	if !ok {
		t.Error("expected mixed-type feedback")
	}
}

func TestElemFeedback(t *testing.T) {
	_, p := warmProfile(t, `
var a = [1, 2, 3, 4];
function f(i) { return a[i]; }
for (var k = 0; k < 50; k++) f(k % 4);
`, "f")
	ok := false
	for pc := range p.Elem {
		fb := &p.Elem[pc]
		if fb.Count > 0 {
			ok = true
			if !fb.FastArray() {
				t.Errorf("in-bounds int access should be FastArray: %+v", fb)
			}
			if fb.SawOOB || fb.SawHole {
				t.Errorf("unexpected OOB/hole: %+v", fb)
			}
		}
	}
	if !ok {
		t.Error("no element feedback recorded")
	}
}

func TestElemFeedbackOOBAndHoles(t *testing.T) {
	_, p := warmProfile(t, `
var a = [];
a[0] = 1; a[5] = 2;
function f(i) { return a[i]; }
for (var k = 0; k < 50; k++) f(k % 10);
`, "f")
	sawOOB, sawHole := false, false
	for pc := range p.Elem {
		fb := &p.Elem[pc]
		if fb.SawOOB {
			sawOOB = true
		}
		if fb.SawHole {
			sawHole = true
		}
	}
	if !sawOOB || !sawHole {
		t.Errorf("expected OOB and hole feedback: oob=%v hole=%v", sawOOB, sawHole)
	}
}

func TestPropICMonomorphic(t *testing.T) {
	_, p := warmProfile(t, `
var o = {x: 1, y: 2};
function f() { return o.x + o.y; }
for (var k = 0; k < 50; k++) f();
`, "f")
	mono := 0
	for i := range p.ICs {
		ic := &p.ICs[i]
		if ic.Monomorphic() {
			mono++
			if ic.Hits == 0 {
				t.Error("monomorphic IC should have hits")
			}
		}
	}
	if mono < 2 {
		t.Errorf("expected >=2 monomorphic ICs (x and y), got %d", mono)
	}
}

func TestPropICPolymorphic(t *testing.T) {
	_, p := warmProfile(t, `
var o1 = {x: 1};
var o2 = {y: 9, x: 2};
function f(o) { return o.x; }
for (var k = 0; k < 50; k++) f(k % 2 ? o1 : o2);
`, "f")
	poly := false
	for i := range p.ICs {
		if p.ICs[i].Poly {
			poly = true
		}
	}
	if !poly {
		t.Error("two shapes at one site must mark the IC polymorphic")
	}
}

func TestCallFeedbackMonoAndPoly(t *testing.T) {
	_, p := warmProfile(t, `
function a(x) { return x; }
function b(x) { return -x; }
function mono(x) { return a(x); }
function poly(x, pick) { var f = pick ? a : b; return f(x); }
for (var k = 0; k < 50; k++) { mono(k); }
`, "mono")
	ok := false
	for pc := range p.Calls {
		fb := &p.Calls[pc]
		if fb.Count > 0 && fb.Monomorphic() {
			ok = true
		}
	}
	if !ok {
		t.Error("expected monomorphic call feedback")
	}
}

func TestMethodCallFeedbackRecordsShape(t *testing.T) {
	_, p := warmProfile(t, `
var obj = {val: 2, double: function(x) { return x * 2; }};
function f(x) { return obj.double(x); }
for (var k = 0; k < 50; k++) f(k);
`, "f")
	ok := false
	for pc := range p.Calls {
		fb := &p.Calls[pc]
		if fb.Count > 0 && fb.RecvShape != nil && fb.Target != nil {
			ok = true
		}
	}
	if !ok {
		t.Error("method call must record receiver shape and target")
	}
}

// Deopt-entry execution: the Baseline executor must be able to start at an
// arbitrary pc with a materialized register file — the OSR-exit path.
func TestExecFromArbitraryPC(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	v := vm.New(cfg)
	if _, err := v.Run(`function f(a, b) { var c = a + b; return c * 2; }`); err != nil {
		t.Fatal(err)
	}
	bcFn := v.Globals().Get("f").Object().Fn.Code.(*bytecode.Function)
	// Find the pc of the multiply and craft a frame state just before it.
	// The peephole pass fuses `c * 2` into a const-fused OpMulK, so accept
	// either shape.
	mulPC := -1
	for pc, in := range bcFn.Code {
		if in.Op == bytecode.OpMul || in.Op == bytecode.OpMulK {
			mulPC = pc
		}
	}
	if mulPC < 0 {
		t.Fatal("no multiply found")
	}
	fr := &frame.Frame{
		Fn:     bcFn,
		Locals: make([]value.Boxed, bcFn.NumRegs),
		PC:     mulPC,
	}
	for i := range fr.Locals {
		fr.Locals[i] = value.BoxedUndefined
	}
	// Emulate precisely: read the instruction's operands. The fused form
	// carries its constant 2 in the pool; the unfused form reads it from a
	// temp register.
	in := bcFn.Code[mulPC]
	fr.Locals[in.B] = value.BoxInt(21)
	if in.Op == bytecode.OpMul {
		fr.Locals[in.C] = value.BoxInt(2)
	}
	res, err := interp.Exec(v, fr, profile.TierBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if res.ToNumber() != 42 {
		t.Errorf("resumed execution = %v, want 42", res)
	}
}

func TestRuntimeErrorHasContext(t *testing.T) {
	v := vm.New(vm.DefaultConfig())
	_, err := v.Run(`
function g() { var x = null; return x.boom; }
g();
`)
	if err == nil {
		t.Fatal("expected error")
	}
	re, ok := err.(*bytecode.RuntimeError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if re.Fn != "g" || re.Line == 0 {
		t.Errorf("error context: fn=%q line=%d", re.Fn, re.Line)
	}
}
