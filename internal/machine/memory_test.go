package machine

import (
	"testing"

	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/value"
)

func TestMemoryAddressesStableAndDisjoint(t *testing.T) {
	m := NewMemory()
	tab := value.NewShapeTable()
	a := value.NewObject(tab, 0)
	b := value.NewObject(tab, 0)
	arr := value.NewArray(tab, 16)

	if m.SlotAddr(a, 0) != m.SlotAddr(a, 0) {
		t.Error("addresses must be stable")
	}
	if m.SlotAddr(a, 0) == m.SlotAddr(b, 0) {
		t.Error("distinct objects must have distinct slot regions")
	}
	if m.SlotAddr(a, 1)-m.SlotAddr(a, 0) != valueSize {
		t.Error("slots must be value-sized apart")
	}
	if m.ElemAddr(arr, 1)-m.ElemAddr(arr, 0) != valueSize {
		t.Error("elements must be value-sized apart")
	}
	// Header words are distinct from slots.
	if m.ShapeAddr(a) == m.SlotAddr(a, 0) || m.LengthAddr(arr) == m.ElemAddr(arr, 0) {
		t.Error("header words must not alias payload")
	}
	// Slot region and element region of the same object are disjoint even
	// for large indices.
	if m.ElemAddr(arr, 100000) == m.SlotAddr(arr, 0) {
		t.Error("element region aliases slot region")
	}
}

// A new address space (Machine.ResetState's) claims objects an old one gave
// addresses, and assigns them in its own first-touch order, as if fresh.
func TestMemoryResetAssignsAfresh(t *testing.T) {
	tab := value.NewShapeTable()
	a, b := value.NewObject(tab, 0), value.NewArray(tab, 4)
	m := NewMemory()
	a1, b1, e1 := m.SlotAddr(a, 0), m.ShapeAddr(b), m.ElemAddr(b, 0)
	if a1 != 0x1000+0x40 || b1 != 0x1000+slotRegion || e1 != 0x1000+2*slotRegion {
		t.Errorf("first space: a %#x, b %#x, b's elements %#x", a1, b1, e1)
	}
	m = NewMemory()
	be2, b2, a2 := m.ElemAddr(b, 0), m.ShapeAddr(b), m.SlotAddr(a, 0)
	if be2 != 0x1000 || b2 != 0x1000+elemRegion || a2 != 0x1000+elemRegion+slotRegion+0x40 {
		t.Errorf("new space: b's elements %#x, b %#x, a %#x", be2, b2, a2)
	}
}

func TestWeightsDFGCostsMoreThanFTL(t *testing.T) {
	f := ir.NewFunc("w", nil)
	b := f.NewBlock()
	ops := []ir.Op{
		ir.OpAddInt, ir.OpMulInt, ir.OpAddDouble, ir.OpDivDouble,
		ir.OpCheckBounds, ir.OpCheckShape, ir.OpCheckOverflow,
		ir.OpLoadSlot, ir.OpStoreSlot, ir.OpLoadElem, ir.OpStoreElem,
		ir.OpLoadGlobal, ir.OpCallRuntime, ir.OpToBool,
	}
	ftlW := WeightsFor(profile.TierFTL)
	dfgW := WeightsFor(profile.TierDFG)
	for _, op := range ops {
		v := b.NewValue(op, ir.TypeNone)
		if ftlW.Op(v) <= 0 {
			t.Errorf("%v: FTL weight must be positive", op)
		}
		if dfgW.Op(v) <= ftlW.Op(v) {
			t.Errorf("%v: DFG weight (%d) must exceed FTL (%d) — paper Table I",
				op, dfgW.Op(v), ftlW.Op(v))
		}
	}
	// Register-allocated pseudo-ops are free in both tiers.
	for _, op := range []ir.Op{ir.OpConst, ir.OpParam, ir.OpPhi} {
		v := b.NewValue(op, ir.TypeGeneric)
		if ftlW.Op(v) != 0 {
			t.Errorf("%v: weight must be 0", op)
		}
	}
}

func TestMathWeightsOrdering(t *testing.T) {
	// Transcendentals must cost more than simple rounding, mirroring real
	// libm costs the paper's benchmarks feel (S19's sin/cos dominance).
	mathWeight := func(name string) int64 { return value.MathFuncs[value.MathIndex(name)].Weight }
	if mathWeight("sin") <= mathWeight("floor") {
		t.Error("sin must cost more than floor")
	}
	if mathWeight("sqrt") <= mathWeight("abs") {
		t.Error("sqrt must cost more than abs")
	}
}
