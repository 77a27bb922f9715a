package machine

// White-box tests of the flat program: the edge copies, terminators and OSR
// binding the lowering resolves once instead of the machine at run time.

import (
	"testing"

	"nomap/internal/frame"
	"nomap/internal/htm"
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/value"
)

// intConst adds an int32 constant to b.
func intConst(b *ir.Block, n int32) *ir.Value {
	k := b.NewValue(ir.OpConst, ir.TypeInt32)
	k.AuxVal = value.Int(n)
	return k
}

// swapLoop builds `x, y = p0, p1; for i < p2: x, y = y, x; return x*10+y`,
// its latch a counted loop back edge, so the swap is a phi parallel copy on
// the back edge.
func swapLoop() *ir.Func {
	f := ir.NewFunc("swap", stubSource(3))
	entry, head, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	var p [3]*ir.Value
	for i := range p {
		p[i] = entry.NewValue(ir.OpParam, ir.TypeInt32)
		p[i].AuxInt = int64(i)
	}
	zero, one, ten := intConst(entry, 0), intConst(entry, 1), intConst(entry, 10)
	ir.AddEdge(entry, head)

	i := head.NewValue(ir.OpPhi, ir.TypeInt32)
	x := head.NewValue(ir.OpPhi, ir.TypeInt32)
	y := head.NewValue(ir.OpPhi, ir.TypeInt32)
	cmp := head.NewValue(ir.OpCmpInt, ir.TypeBool, i, p[2])
	cmp.AuxInt = int64(value.CmpLT)
	head.Kind, head.Control = ir.BlockIf, cmp
	ir.AddEdge(head, body)
	ir.AddEdge(head, exit)

	next := body.NewValue(ir.OpAddInt, ir.TypeInt32, i, one)
	body.BackEdge = true
	ir.AddEdge(body, head)

	i.Args = []*ir.Value{zero, next}
	x.Args = []*ir.Value{p[0], y}
	y.Args = []*ir.Value{p[1], x}

	tens := exit.NewValue(ir.OpMulInt, ir.TypeInt32, x, ten)
	res := exit.NewValue(ir.OpAddInt, ir.TypeInt32, tens, y)
	exit.Kind, exit.Control = ir.BlockReturn, res
	return f
}

func TestPhiSwapAcrossBackEdge(t *testing.T) {
	f := swapLoop()
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	for trips, want := range []int32{12, 21, 12, 21, 12} {
		h := newStubHost()
		m := New(h, htm.ROTConfig())
		res, d, err := m.RunIR(f, profile.TierFTL, []value.Value{value.Int(1), value.Int(2), value.Int(int32(trips))})
		if err != nil || d != nil {
			t.Fatalf("%d trips: deopt %v, err %v", trips, d, err)
		}
		if res.ToNumber() != float64(want) {
			t.Errorf("%d trips: x*10+y = %v, want %d", trips, res, want)
		}
		if got := h.ProfileFor(f.Source).BackEdgeCount; got != int64(trips) {
			t.Errorf("%d trips: %d back edges folded into the profile", trips, got)
		}
	}
}

// A BlockIf whose two successors are the same block has that block's
// predecessor list name it twice; both edges take the phi operand of the
// first slot, as the IR's PredIndex does.
func TestBranchToSameBlock(t *testing.T) {
	f := ir.NewFunc("same", stubSource(1))
	entry, join := f.NewBlock(), f.NewBlock()
	f.Entry = entry
	p := entry.NewValue(ir.OpParam, ir.TypeGeneric)
	cond := entry.NewValue(ir.OpToBool, ir.TypeBool, p)
	first, second := intConst(entry, 7), intConst(entry, 9)
	entry.Kind, entry.Control = ir.BlockIf, cond
	ir.AddEdge(entry, join)
	ir.AddEdge(entry, join)
	phi := join.NewValue(ir.OpPhi, ir.TypeInt32)
	phi.Args = []*ir.Value{first, second}
	join.Kind, join.Control = ir.BlockReturn, phi

	prog := Lower(f, profile.TierFTL)
	br := prog.code[prog.entry+int32(len(entry.Values))]
	if br.op != opBranch || br.edges[0] == br.edges[1] {
		t.Fatalf("entry terminator %v with edges %v, want a branch with one edge per successor slot", br.op, br.edges)
	}
	for _, arg := range []value.Value{value.Int(1), value.Int(0)} {
		if got := run1(t, f, arg); got.ToNumber() != 7 {
			t.Errorf("cond %v: phi = %v, want the first slot's 7", arg, got)
		}
	}
}

// An OSR entry binds the frame's registers to the artifact's OpOSRLocal
// values, starts at the entry block, and carries the frame's back-edge delta
// into the profile on a clean return; a frame at another pc is refused.
func TestOSREntryBindsFrame(t *testing.T) {
	const header = 4
	f := ir.NewFunc("osr", stubSource(3))
	f.OSREntryPC = header
	b := f.NewBlock()
	f.Entry = b
	r0 := b.NewValue(ir.OpOSRLocal, ir.TypeInt32)
	r2 := b.NewValue(ir.OpOSRLocal, ir.TypeInt32)
	r2.AuxInt = 2
	sum := b.NewValue(ir.OpAddInt, ir.TypeInt32, r0, r2)
	b.Kind, b.Control = ir.BlockReturn, sum
	prog := Lower(f, profile.TierFTL)

	h := newStubHost()
	m := New(h, htm.ROTConfig())
	fr := &frame.Frame{Fn: f.Source, PC: header, BackEdges: 5,
		Locals: []value.Boxed{value.BoxInt(30), value.BoxInt(1), value.BoxInt(12)}}
	res, d, err := m.EnterAt(&prog, fr)
	if err != nil || d != nil {
		t.Fatalf("EnterAt: deopt %v, err %v", d, err)
	}
	if res.ToNumber() != 42 {
		t.Errorf("r0+r2 = %v, want 42", res)
	}
	if got := h.ProfileFor(f.Source).BackEdgeCount; got != 5 || fr.BackEdges != 0 {
		t.Errorf("profile holds %d back edges and the frame %d, want the frame's 5 moved over", got, fr.BackEdges)
	}
	if h.ctrs.OSREntries != 1 {
		t.Errorf("OSREntries = %d, want 1", h.ctrs.OSREntries)
	}
	if _, _, err := m.EnterAt(&prog, &frame.Frame{Fn: f.Source, PC: header + 1}); err == nil {
		t.Error("an entry at a pc other than the artifact's header was accepted")
	}
}

// Lowering costs a fixed number of allocations: the instructions, their
// operand and edge data, and the inline-frame callee table.
func TestLowerAllocations(t *testing.T) {
	f := swapLoop()
	f.Inlines = []*ir.InlineFrame{{Callee: &value.Function{Name: "g"}, Source: stubSource(1), Index: 1}}
	if n := testing.AllocsPerRun(20, func() { Lower(f, profile.TierDFG) }); n > 3 {
		t.Errorf("Lower costs %v allocations, want at most 3", n)
	}
}
