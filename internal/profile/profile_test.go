package profile

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/value"
)

func TestParseTier(t *testing.T) {
	want := map[string]Tier{
		"interp": TierInterp, "Interpreter": TierInterp, "baseline": TierBaseline,
		"Baseline": TierBaseline, "dfg": TierDFG, "DFG": TierDFG, "ftl": TierFTL, "FTL": TierFTL,
	}
	for name, tier := range want {
		if got, ok := ParseTier(name); !ok || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", name, got, ok, tier)
		}
	}
	for _, name := range []string{"", "jit", "Tier(?)"} {
		if got, ok := ParseTier(name); ok {
			t.Errorf("ParseTier(%q) accepted as %v", name, got)
		}
	}
}

func TestArithFeedbackLattice(t *testing.T) {
	var f ArithFeedback
	f.Observe(value.Int(1), value.Int(2))
	if !f.IntOnly() || !f.NumberOnly() {
		t.Error("int operands: IntOnly and NumberOnly must hold")
	}
	f.Observe(value.Int(1), value.Double(0.5))
	if f.IntOnly() {
		t.Error("double operand must clear IntOnly")
	}
	if !f.NumberOnly() {
		t.Error("numbers only so far")
	}
	f.Observe(value.Str("x"), value.Int(1))
	if f.NumberOnly() {
		t.Error("string operand must clear NumberOnly")
	}
}

func TestArithFeedbackOverflowGate(t *testing.T) {
	var f ArithFeedback
	f.Observe(value.Int(1), value.Int(2))
	if !f.IntOnly() {
		t.Fatal("precondition")
	}
	f.SawOverflow = true
	if f.IntOnly() {
		t.Error("overflow history must disable int speculation")
	}
	if !f.IntOperands() {
		t.Error("IntOperands ignores overflow history")
	}
}

func TestElemFeedback(t *testing.T) {
	table := value.NewShapeTable()
	arr := value.Obj(value.NewArray(table, 4))
	var f ElemFeedback
	f.Observe(arr, value.Int(1), value.ElemAccess{InBounds: true})
	if !f.FastArray() {
		t.Error("dense int access must be FastArray")
	}
	f.Observe(arr, value.Double(1.5), value.ElemAccess{InBounds: true})
	if f.FastArray() {
		t.Error("non-int index must disable the fast path")
	}
}

// A store at exactly the element count is sequential growth (legal for the
// store op, which elongates), not an out-of-bounds miss: the two must stay
// distinguishable so append loops keep their fast path with only a
// non-negative-index guard.
func TestElemFeedbackAppendVsOOB(t *testing.T) {
	table := value.NewShapeTable()
	arr := value.Obj(value.NewArray(table, 4))
	var f ElemFeedback
	f.Observe(arr, value.Int(4), value.ElemAccess{Append: true}) // store at length: append
	if !f.SawAppend || f.SawOOB {
		t.Errorf("append store: SawAppend=%v SawOOB=%v, want true/false", f.SawAppend, f.SawOOB)
	}
	if !f.FastArray() {
		t.Error("append alone must not disable the fast array path")
	}
	f.Observe(arr, value.Int(9), value.ElemAccess{}) // past length: true OOB
	if !f.SawOOB {
		t.Error("out-of-bounds store must set SawOOB")
	}
}

// AddBackEdges folds a frame's carried delta into the loop-trip count — the
// mechanism that keeps BackEdgeCount identical whether a loop runs in one
// tier or hands its frame across several.
func TestAddBackEdges(t *testing.T) {
	p := &FunctionProfile{}
	p.BackEdgeCount = 100
	p.AddBackEdges(28)
	if p.BackEdgeCount != 128 {
		t.Errorf("BackEdgeCount = %d, want 128", p.BackEdgeCount)
	}
}

func TestCallFeedback(t *testing.T) {
	a := &value.Function{Name: "a"}
	b := &value.Function{Name: "b"}
	var f CallFeedback
	f.Observe(a)
	if !f.Monomorphic() {
		t.Error("one target = monomorphic")
	}
	f.Observe(a)
	if !f.Monomorphic() {
		t.Error("same target stays monomorphic")
	}
	f.Observe(b)
	if f.Monomorphic() {
		t.Error("second target = polymorphic")
	}
}

func TestMethodFeedbackShapes(t *testing.T) {
	table := value.NewShapeTable()
	o1 := value.NewObject(table, 0)
	o1.Set("m", value.Int(1))
	o2 := value.NewObject(table, 0)
	o2.Set("z", value.Int(1))
	fn := &value.Function{Name: "m"}
	var f CallFeedback
	f.ObserveMethod(fn, o1.Shape)
	if !f.Monomorphic() || f.RecvShape != o1.Shape {
		t.Error("first observation must record the shape")
	}
	f.ObserveMethod(fn, o2.Shape)
	if f.Monomorphic() {
		t.Error("different receiver shape must be polymorphic")
	}
}

func TestPolicyTiering(t *testing.T) {
	fn := &bytecode.Function{Name: "f"}
	p := New(fn)
	pol := DefaultPolicy()
	if got := pol.TierFor(p, TierFTL); got != TierInterp {
		t.Errorf("cold function tier = %v", got)
	}
	p.InvocationCount = pol.BaselineThreshold
	if got := pol.TierFor(p, TierFTL); got != TierBaseline {
		t.Errorf("tier = %v, want Baseline", got)
	}
	p.InvocationCount = pol.FTLThreshold
	if got := pol.TierFor(p, TierFTL); got != TierFTL {
		t.Errorf("tier = %v, want FTL", got)
	}
	// Tier cap.
	if got := pol.TierFor(p, TierDFG); got != TierDFG {
		t.Errorf("capped tier = %v, want DFG", got)
	}
	// Deopt blocklist.
	p.Deopts = pol.MaxDeopts
	if got := pol.TierFor(p, TierFTL); got != TierBaseline {
		t.Errorf("blocklisted tier = %v, want Baseline", got)
	}
}

func TestBackEdgesDriveTierUp(t *testing.T) {
	fn := &bytecode.Function{Name: "f"}
	p := New(fn)
	pol := DefaultPolicy()
	p.InvocationCount = 1
	p.BackEdgeCount = pol.FTLThreshold * 16
	if got := pol.TierFor(p, TierFTL); got != TierFTL {
		t.Errorf("loop-heavy function tier = %v, want FTL", got)
	}
}

func TestClosurePinning(t *testing.T) {
	fn := &bytecode.Function{Name: "f", UsesClosure: true}
	p := New(fn)
	pol := DefaultPolicy()
	p.InvocationCount = pol.FTLThreshold * 10
	if got := pol.TierFor(p, TierFTL); got != TierBaseline {
		t.Errorf("closure user tier = %v, want Baseline", got)
	}
}

func TestTierNames(t *testing.T) {
	names := map[Tier]string{
		TierInterp: "Interpreter", TierBaseline: "Baseline",
		TierDFG: "DFG", TierFTL: "FTL",
	}
	for tier, want := range names {
		if tier.String() != want {
			t.Errorf("%d.String() = %q", tier, tier.String())
		}
	}
}
