package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// buildHot compiles src, warms it in the Baseline tier so profiles fill, and
// returns the IR for the global function fname together with its profile.
func buildHot(t *testing.T, src, fname string) (*ir.Func, *profile.FunctionProfile) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline // gather feedback only
	m := vm.New(cfg)
	if _, err := m.Run(src); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	fv := m.Globals().Get(fname)
	if !fv.IsCallable() {
		t.Fatalf("global %q is not a function", fname)
	}
	bcFn := fv.Object().Fn.Code.(*bytecode.Function)
	prof := m.ProfileFor(bcFn)
	f, err := ir.Build(bcFn, prof)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("Verify: %v\n%s", err, f)
	}
	return f, prof
}

const sumLoopSrc = `
function sum(a, n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + a[i]; }
  return s;
}
var arr = [];
for (var j = 0; j < 100; j++) arr[j] = j;
var r = 0;
for (var k = 0; k < 50; k++) r = sum(arr, 100);
var result = r;
`

func countOps(f *ir.Func) map[ir.Op]int {
	m := map[ir.Op]int{}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			m[v.Op]++
		}
	}
	return m
}

func TestBuildSumLoop(t *testing.T) {
	f, _ := buildHot(t, sumLoopSrc, "sum")
	ops := countOps(f)
	if ops[ir.OpCheckBounds] == 0 {
		t.Errorf("expected a bounds check in:\n%s", f)
	}
	if ops[ir.OpCheckOverflow] == 0 {
		t.Errorf("expected overflow checks in:\n%s", f)
	}
	if ops[ir.OpLoadElem] == 0 {
		t.Errorf("expected a fast-path element load in:\n%s", f)
	}
	if ops[ir.OpCallRuntime] != 0 {
		t.Errorf("hot int loop should not need runtime calls:\n%s", f)
	}
	if ops[ir.OpPhi] == 0 {
		t.Errorf("loop must produce phis:\n%s", f)
	}
	// Every check must carry a deopt stack map at build time (Base config).
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op.IsCheck() && v.Deopt == nil {
				t.Errorf("check v%d has no stack map", v.ID)
			}
			if v.Op.IsCheck() && len(v.Deopt.Entries) == 0 {
				t.Errorf("check v%d has empty stack map", v.ID)
			}
		}
	}
}

func TestBuildPropertyAccess(t *testing.T) {
	src := `
function accum(obj) {
  var len = obj.values.length;
  for (var idx = 0; idx < len; idx++) {
    obj.sum += obj.values[idx];
  }
  return obj.sum;
}
var o = {values: [1,2,3,4,5,6,7,8], sum: 0};
for (var k = 0; k < 50; k++) { o.sum = 0; accum(o); }
var result = o.sum;
`
	f, _ := buildHot(t, src, "accum")
	ops := countOps(f)
	if ops[ir.OpCheckShape] == 0 {
		t.Errorf("expected property (shape) checks:\n%s", f)
	}
	if ops[ir.OpLoadSlot] == 0 || ops[ir.OpStoreSlot] == 0 {
		t.Errorf("expected direct slot accesses:\n%s", f)
	}
	if ops[ir.OpLoadLength] == 0 {
		t.Errorf("expected array length load:\n%s", f)
	}
}

func TestBuildDoubleMath(t *testing.T) {
	src := `
function norm(x, y) { return Math.sqrt(x * x + y * y); }
var r = 0;
for (var k = 0; k < 60; k++) r = norm(k + 0.5, k + 1.5);
var result = r;
`
	f, _ := buildHot(t, src, "norm")
	ops := countOps(f)
	if ops[ir.OpMulDouble] == 0 && ops[ir.OpAddDouble] == 0 {
		t.Errorf("expected double arithmetic:\n%s", f)
	}
	if ops[ir.OpMathOp] == 0 {
		t.Errorf("expected Math.sqrt intrinsic:\n%s", f)
	}
	if ops[ir.OpCheckCallee] == 0 {
		t.Errorf("intrinsic must be guarded by a callee check:\n%s", f)
	}
}

func TestBuildDirectCall(t *testing.T) {
	src := `
function leaf(x) { return x + 1; }
function caller(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += leaf(i);
  return s;
}
var r = 0;
for (var k = 0; k < 50; k++) r = caller(20);
var result = r;
`
	f, _ := buildHot(t, src, "caller")
	ops := countOps(f)
	if ops[ir.OpCallDirect] == 0 {
		t.Errorf("expected a direct call to leaf:\n%s", f)
	}
}

func TestBuildRejectsClosures(t *testing.T) {
	src := `
function outer() {
  var n = 0;
  return function() { n++; return n; };
}
var c = outer();
var result = c();
`
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	m := vm.New(cfg)
	if _, err := m.Run(src); err != nil {
		t.Fatal(err)
	}
	fv := m.Globals().Get("outer")
	bcFn := fv.Object().Fn.Code.(*bytecode.Function)
	if _, err := ir.Build(bcFn, m.ProfileFor(bcFn)); err == nil {
		t.Fatal("expected Build to reject closure-using function")
	}
}

func TestBuildBranchesAndPhis(t *testing.T) {
	src := `
function pick(a, b, flag) {
  var r;
  if (flag) { r = a; } else { r = b; }
  return r * 2;
}
var r = 0;
for (var k = 0; k < 60; k++) r = pick(k, -k, k % 2);
var result = r;
`
	f, _ := buildHot(t, src, "pick")
	ops := countOps(f)
	if ops[ir.OpPhi] == 0 {
		t.Errorf("if/else merge needs a phi:\n%s", f)
	}
	hasIf := false
	for _, b := range f.Blocks {
		if b.Kind == ir.BlockIf {
			hasIf = true
		}
	}
	if !hasIf {
		t.Errorf("expected an if block:\n%s", f)
	}
}

func TestBuildStringRendering(t *testing.T) {
	f, _ := buildHot(t, sumLoopSrc, "sum")
	s := f.String()
	for _, want := range []string{"func sum:", "chkbounds", "deopt@", "phi"} {
		if !strings.Contains(s, want) {
			t.Errorf("IR dump missing %q:\n%s", want, s)
		}
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	f, _ := buildHot(t, sumLoopSrc, "sum")
	dom := ir.BuildDom(f)
	loops := ir.FindLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("expected 1 loop, got %d", len(loops))
	}
	l := loops[0]
	if l.Preheader() == nil {
		t.Error("loop should have a preheader")
	}
	if len(l.Latches()) == 0 {
		t.Error("loop should have a latch")
	}
	if len(l.Exits()) == 0 {
		t.Error("loop should have an exit")
	}
	if !dom.Dominates(f.Entry, l.Header) {
		t.Error("entry must dominate loop header")
	}
	if l.Depth != 1 {
		t.Errorf("Depth = %d", l.Depth)
	}
}

func TestNestedLoops(t *testing.T) {
	src := `
function mat(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    for (var j = 0; j < n; j++) {
      s = s + i * j;
    }
  }
  return s;
}
var r = 0;
for (var k = 0; k < 50; k++) r = mat(10);
var result = r;
`
	f, _ := buildHot(t, src, "mat")
	dom := ir.BuildDom(f)
	loops := ir.FindLoops(f, dom)
	if len(loops) != 2 {
		t.Fatalf("expected 2 loops, got %d", len(loops))
	}
	var inner, outer *ir.Loop
	for _, l := range loops {
		if l.Depth == 2 {
			inner = l
		} else {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("expected depths 1 and 2")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent should be the outer loop")
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer loop must contain inner header")
	}
}

// An OSR build gets blocks only for the code its loop header reaches, in pc
// order, then the synthetic entry falling through to the header; the block
// ending in the backward jump carries the back-edge flag.
func TestBuildOSRSkipsPreLoopCode(t *testing.T) {
	fn := &bytecode.Function{Name: "osr", NumLocals: 1, NumRegs: 1, Code: []bytecode.Instr{
		{Op: bytecode.OpLoadUndef, A: 0},         // 0: pre-loop
		{Op: bytecode.OpJumpIfFalse, A: 0, B: 4}, // 1: header
		{Op: bytecode.OpMove, A: 0, B: 0},        // 2
		{Op: bytecode.OpJump, A: 1},              // 3: back edge
		{Op: bytecode.OpReturn, A: 0},            // 4
	}}
	render := func(f *ir.Func) string {
		var parts []string
		for _, b := range f.Blocks {
			s := fmt.Sprintf("%d", b.StartPC)
			if b.BackEdge {
				s += "*"
			}
			for _, p := range b.Preds {
				s += fmt.Sprintf("<%d", p.StartPC)
			}
			parts = append(parts, s)
		}
		return strings.Join(parts, " ")
	}
	for _, c := range []struct {
		osrPC int
		want  string
	}{
		{-1, "0<-1 1<0<2 2*<1 4<1 -1"},
		{1, "1<2<-1 2*<1 4<1 -1"},
	} {
		var f *ir.Func
		var err error
		if c.osrPC < 0 {
			f, err = ir.Build(fn, profile.New(fn))
		} else {
			f, err = ir.BuildOSR(fn, profile.New(fn), c.osrPC)
		}
		if err != nil {
			t.Fatalf("osr pc %d: %v", c.osrPC, err)
		}
		if err := ir.Verify(f); err != nil {
			t.Fatalf("osr pc %d: Verify: %v\n%s", c.osrPC, err, f)
		}
		if got := render(f); got != c.want || f.Entry != f.Blocks[len(f.Blocks)-1] {
			t.Errorf("osr pc %d: blocks %q, want %q with the entry last", c.osrPC, got, c.want)
		}
	}
	if _, err := ir.BuildOSR(fn, profile.New(fn), 3); err == nil {
		t.Error("BuildOSR accepted pc 3, which starts no block")
	}
}
