package machine

// White-box execution tests: hand-built IR run on the machine with a stub
// host, covering op semantics the integration tests reach only indirectly
// (garbage-tolerant loads past removed checks, overflow flag wiring, phi
// parallel copies).

import (
	"fmt"
	"math"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/htm"
	"nomap/internal/ir"
	"nomap/internal/opt"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

type stubHost struct {
	shapes  *value.ShapeTable
	globals *value.Object
	handles *value.Handles
	ctrs    stats.Counters
	calls   int
	profs   map[*bytecode.Function]*profile.FunctionProfile
}

func newStubHost() *stubHost {
	t := value.NewShapeTable()
	h := &stubHost{shapes: t, handles: value.NewHandles()}
	h.globals = value.NewObject(t, 0)
	return h
}

func (h *stubHost) Shapes() *value.ShapeTable { return h.shapes }
func (h *stubHost) Handles() *value.Handles   { return h.handles }
func (h *stubHost) ProfileFor(fn *bytecode.Function) *profile.FunctionProfile {
	if h.profs == nil {
		h.profs = make(map[*bytecode.Function]*profile.FunctionProfile)
	}
	p, ok := h.profs[fn]
	if !ok {
		p = profile.New(fn)
		h.profs[fn] = p
	}
	return p
}
func (h *stubHost) Globals() *value.Object    { return h.globals }
func (h *stubHost) Counters() *stats.Counters { return &h.ctrs }
func (h *stubHost) Call(fn *value.Function, this value.Value, args []value.Value) (value.Value, error) {
	h.calls++
	if fn.Native != nil {
		return fn.Native(this, args)
	}
	return value.Undefined(), fmt.Errorf("stub host cannot run user code")
}
func (h *stubHost) Construct(fn *value.Function, args []value.Value) (value.Value, error) {
	return value.Obj(value.NewObject(h.shapes, 0)), nil
}
func (h *stubHost) InvokeMethod(recv value.Value, name string, args []value.Value) (value.Value, error) {
	return value.Undefined(), fmt.Errorf("stub host has no methods")
}

// fnReturning builds `return <op>(params...)` with a source function sized
// for deopt materialization.
func fnReturning(op ir.Op, t ir.Type, nParams int, aux int64) *ir.Func {
	f := ir.NewFunc("t", stubSource(nParams))
	b := f.NewBlock()
	f.Entry = b
	var args []*ir.Value
	for i := 0; i < nParams; i++ {
		p := b.NewValue(ir.OpParam, ir.TypeGeneric)
		p.AuxInt = int64(i)
		args = append(args, p)
	}
	v := b.NewValue(op, t, args...)
	v.AuxInt = aux
	b.Kind = ir.BlockReturn
	b.Control = v
	return f
}

// stubSource provides the only piece of the source function the machine
// touches: NumRegs, used when materializing deopt register files.
func stubSource(nRegs int) *bytecode.Function {
	return &bytecode.Function{Name: "stub", NumRegs: nRegs}
}

func run1(t *testing.T, f *ir.Func, args ...value.Value) value.Value {
	t.Helper()
	m := New(newStubHost(), htm.ROTConfig())
	res, d, err := m.RunIR(f, profile.TierFTL, args)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d != nil {
		t.Fatalf("unexpected deopt to pc %d", d.Frame.PC)
	}
	return res
}

func TestIntArithOps(t *testing.T) {
	cases := []struct {
		op   ir.Op
		a, b int32
		want int32
	}{
		{ir.OpAddInt, 2, 3, 5},
		{ir.OpSubInt, 2, 3, -1},
		{ir.OpMulInt, 4, 5, 20},
		{ir.OpBitAnd, 6, 3, 2},
		{ir.OpBitOr, 6, 3, 7},
		{ir.OpBitXor, 6, 3, 5},
		{ir.OpShl, 1, 4, 16},
		{ir.OpShr, -8, 1, -4},
	}
	for _, c := range cases {
		f := fnReturning(c.op, ir.TypeInt32, 2, 0)
		got := run1(t, f, value.Int(c.a), value.Int(c.b))
		if !got.IsInt32() || got.Int32() != c.want {
			t.Errorf("%v(%d,%d) = %v, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestOverflowFlagFeedsCheck(t *testing.T) {
	// add = a+b; CheckOverflow(add) with a deopt map; return add.
	f := ir.NewFunc("ovf", stubSource(4))
	b := f.NewBlock()
	f.Entry = b
	p0 := b.NewValue(ir.OpParam, ir.TypeGeneric)
	p1 := b.NewValue(ir.OpParam, ir.TypeGeneric)
	p1.AuxInt = 1
	add := b.NewValue(ir.OpAddInt, ir.TypeInt32, p0, p1)
	chk := b.NewValue(ir.OpCheckOverflow, ir.TypeNone, add)
	chk.Check = stats.CheckOverflow
	chk.Deopt = &ir.StackMap{PC: 7, Entries: []ir.StackMapEntry{{Reg: 0, Val: p0}, {Reg: 1, Val: p1}}}
	b.Kind = ir.BlockReturn
	b.Control = add

	m := New(newStubHost(), htm.ROTConfig())
	res, d, err := m.RunIR(f, profile.TierFTL, []value.Value{value.Int(2), value.Int(3)})
	if err != nil || d != nil {
		t.Fatalf("clean case: res=%v d=%v err=%v", res, d, err)
	}
	if res.Int32() != 5 {
		t.Fatalf("res = %v", res)
	}

	// Overflowing case must deopt with the pre-op state.
	_, d, err = m.RunIR(f, profile.TierFTL, []value.Value{value.Int(math.MaxInt32), value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Frame.PC != 7 {
		t.Fatalf("expected deopt at pc 7, got %+v", d)
	}
	if d.Frame.Locals[0].Int32() != math.MaxInt32 || d.Frame.Locals[1].Int32() != 1 {
		t.Fatalf("deopt regs = %v", d.Frame.Locals)
	}
	if m.host.Counters().Deopts != 1 {
		t.Error("deopt not counted")
	}
}

func TestGarbageTolerantLoads(t *testing.T) {
	// LoadElem with an out-of-bounds index (as after bounds-check combining)
	// must produce undefined, not panic.
	host := newStubHost()
	arr := value.NewArray(host.shapes, 4)
	for i := 0; i < 4; i++ {
		arr.SetElement(i, value.Int(int32(i*10)))
	}
	f := ir.NewFunc("ld", stubSource(2))
	b := f.NewBlock()
	f.Entry = b
	pa := b.NewValue(ir.OpParam, ir.TypeGeneric)
	pi := b.NewValue(ir.OpParam, ir.TypeGeneric)
	pi.AuxInt = 1
	ld := b.NewValue(ir.OpLoadElem, ir.TypeGeneric, pa, pi)
	b.Kind = ir.BlockReturn
	b.Control = ld

	m := New(host, htm.ROTConfig())
	res, _, err := m.RunIR(f, profile.TierFTL, []value.Value{value.Obj(arr), value.Int(2)})
	if err != nil || res.Int32() != 20 {
		t.Fatalf("in bounds: %v %v", res, err)
	}
	res, _, err = m.RunIR(f, profile.TierFTL, []value.Value{value.Obj(arr), value.Int(99)})
	if err != nil || !res.IsUndefined() {
		t.Fatalf("OOB must yield undefined garbage: %v %v", res, err)
	}
	res, _, err = m.RunIR(f, profile.TierFTL, []value.Value{value.Undefined(), value.Int(0)})
	if err != nil || !res.IsUndefined() {
		t.Fatalf("non-object base must yield undefined garbage: %v %v", res, err)
	}
}

func TestPhiParallelCopy(t *testing.T) {
	// Swap phis: (x, y) = (y, x) each iteration, 3 iterations — requires a
	// genuinely parallel copy at the block boundary.
	f := ir.NewFunc("swap", stubSource(4))
	entry := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	f.Entry = entry

	px := entry.NewValue(ir.OpParam, ir.TypeGeneric)
	py := entry.NewValue(ir.OpParam, ir.TypeGeneric)
	py.AuxInt = 1
	zero := entry.NewValue(ir.OpConst, ir.TypeInt32)
	zero.AuxVal = value.Int(0)
	three := entry.NewValue(ir.OpConst, ir.TypeInt32)
	three.AuxVal = value.Int(3)
	one := entry.NewValue(ir.OpConst, ir.TypeInt32)
	one.AuxVal = value.Int(1)
	entry.Kind = ir.BlockPlain
	ir.AddEdge(entry, head)

	phiI := head.NewValue(ir.OpPhi, ir.TypeInt32)
	phiX := head.NewValue(ir.OpPhi, ir.TypeGeneric)
	phiY := head.NewValue(ir.OpPhi, ir.TypeGeneric)
	cmp := head.NewValue(ir.OpCmpInt, ir.TypeBool, phiI, three)
	cmp.AuxInt = int64(value.CmpLT)
	head.Kind = ir.BlockIf
	head.Control = cmp
	ir.AddEdge(head, body)
	ir.AddEdge(head, exit)

	inc := body.NewValue(ir.OpAddInt, ir.TypeInt32, phiI, one)
	body.Kind = ir.BlockPlain
	ir.AddEdge(body, head)

	// Preds of head: [entry, body].
	phiI.Args = []*ir.Value{zero, inc}
	phiX.Args = []*ir.Value{px, phiY} // swap each iteration
	phiY.Args = []*ir.Value{py, phiX}

	exit.Kind = ir.BlockReturn
	exit.Control = phiX

	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	// After 3 swaps, x holds the original y.
	got := run1(t, f, value.Int(111), value.Int(222))
	if got.Int32() != 222 {
		t.Errorf("after odd swaps x = %v, want 222", got)
	}
}

func TestNativeCallThroughMachine(t *testing.T) {
	host := newStubHost()
	native := &value.Function{
		Name: "twice",
		Native: func(this value.Value, args []value.Value) (value.Value, error) {
			return value.Number(args[0].ToNumber() * 2), nil
		},
	}
	f := ir.NewFunc("call", stubSource(2))
	b := f.NewBlock()
	f.Entry = b
	this := b.NewValue(ir.OpConst, ir.TypeGeneric)
	this.AuxVal = value.Undefined()
	p := b.NewValue(ir.OpParam, ir.TypeGeneric)
	call := b.NewValue(ir.OpCallDirect, ir.TypeGeneric, this, p)
	call.Callee = native
	b.Kind = ir.BlockReturn
	b.Control = call

	m := New(host, htm.ROTConfig())
	res, _, err := m.RunIR(f, profile.TierFTL, []value.Value{value.Int(21)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ToNumber() != 42 || host.calls != 1 {
		t.Errorf("res=%v calls=%d", res, host.calls)
	}
}

// ResetState drops an open transaction together with its write hook and undo
// log; a hook left behind would turn every later heap write into a pending
// capacity abort.
func TestResetStateDropsOpenTransaction(t *testing.T) {
	h := newStubHost()
	m := New(h, htm.ROTConfig())
	o := value.NewObject(h.shapes, 0)
	o.Set("x", value.Int(1))
	m.HTM.Begin(nil, nil)
	m.installHook()
	o.Set("x", value.Int(2))
	if len(m.undo) != 1 {
		t.Fatalf("undo log holds %d records after one hooked store, want 1", len(m.undo))
	}
	m.ResetState()
	if m.InTx() || h.shapes.Hook != nil || len(m.undo) != 0 {
		t.Errorf("after ResetState: open=%v hook=%v undo records=%d", m.InTx(), h.shapes.Hook, len(m.undo))
	}
	o.Set("x", value.Int(3))
	if m.pendingCapacity {
		t.Error("a heap write after ResetState still reaches the machine")
	}
}

// The optimizer's constant folder computes exactly what the machine computes:
// for every op it folds and a grid of edge operands, the op on two constants
// folds iff the machine runs it without raising the overflow flag, and to
// the value the machine produces.
func TestFolderMatchesMachine(t *testing.T) {
	type opCase struct {
		op  ir.Op
		cmp value.Cmp
	}
	var cases []opCase
	for _, op := range []ir.Op{ir.OpAddInt, ir.OpSubInt, ir.OpMulInt,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr} {
		cases = append(cases, opCase{op: op})
	}
	for c := value.CmpLT; c <= value.CmpNE; c++ {
		cases = append(cases, opCase{op: ir.OpCmpInt, cmp: c})
	}
	grid := []int32{0, 1, -1, 2, -7, 31, 32, 33, -32, 46340, 46341, -46341, 65536,
		math.MaxInt32, math.MinInt32, math.MinInt32 + 1}

	// build returns `return op(x, y)` with its operands from mk, and the op.
	build := func(c opCase, mk func(b *ir.Block, i int) *ir.Value) (*ir.Func, *ir.Value) {
		f := ir.NewFunc("fold", stubSource(2))
		b := f.NewBlock()
		f.Entry = b
		x, y := mk(b, 0), mk(b, 1)
		typ := ir.TypeInt32
		if c.op == ir.OpCmpInt {
			typ = ir.TypeBool
		}
		v := b.NewValue(c.op, typ, x, y)
		v.AuxInt = int64(c.cmp)
		if c.op == ir.OpAddInt || c.op == ir.OpSubInt || c.op == ir.OpMulInt {
			chk := b.NewValue(ir.OpCheckOverflow, ir.TypeNone, v)
			chk.Check = stats.CheckOverflow
			chk.Deopt = &ir.StackMap{}
		}
		b.Kind = ir.BlockReturn
		b.Control = v
		return f, v
	}
	m := New(newStubHost(), htm.ROTConfig())
	for _, c := range cases {
		name := c.op.String()
		if c.op == ir.OpCmpInt {
			name += "." + c.cmp.String()
		}
		run, _ := build(c, func(b *ir.Block, i int) *ir.Value {
			p := b.NewValue(ir.OpParam, ir.TypeInt32)
			p.AuxInt = int64(i)
			return p
		})
		for _, x := range grid {
			for _, y := range grid {
				want, d, err := m.RunIR(run, profile.TierFTL, []value.Value{value.Int(x), value.Int(y)})
				if err != nil {
					t.Fatal(err)
				}
				operands := [2]int32{x, y}
				g, v := build(c, func(b *ir.Block, i int) *ir.Value {
					k := b.NewValue(ir.OpConst, ir.TypeInt32)
					k.AuxVal = value.Int(operands[i])
					return k
				})
				opt.GVN(g)
				folded := v.Op == ir.OpConst
				if overflowed := d != nil; folded == overflowed {
					t.Errorf("%s(%d, %d): folded=%v, machine overflow=%v", name, x, y, folded, overflowed)
					continue
				}
				if folded && (v.AuxVal.Kind() != want.Kind() || !value.StrictEquals(v.AuxVal, want)) {
					t.Errorf("%s(%d, %d): folded to %v, machine computed %v", name, x, y, v.AuxVal, want)
				}
			}
		}
	}
}

// globalAccess builds `g = param0; return g`, or `return g` without store.
func globalAccess(store bool) *ir.Func {
	f := ir.NewFunc("t", stubSource(1))
	b := f.NewBlock()
	f.Entry = b
	if store {
		p := b.NewValue(ir.OpParam, ir.TypeGeneric)
		b.NewValue(ir.OpStoreGlobal, ir.TypeNone, p).AuxStr = "g"
	}
	ld := b.NewValue(ir.OpLoadGlobal, ir.TypeGeneric)
	ld.AuxStr = "g"
	b.Kind = ir.BlockReturn
	b.Control = ld
	return f
}

// A global access caches the global object's shape and the name's offset in
// its lowered instruction. Every change to the global object must still be
// read correctly through that cache: a store that adds the global, globals
// added between two runs, a new global object with another layout, and a
// global add rolled back by an aborted transaction. Each access is charged
// the same simulated address whether it hits the cache or not.
func TestGlobalOffsetCache(t *testing.T) {
	h := newStubHost()
	m := New(h, htm.ROTConfig())
	store, load := Lower(globalAccess(true), profile.TierFTL), Lower(globalAccess(false), profile.TierFTL)
	run := func(p *Program, arg int32) (value.Value, error) {
		t.Helper()
		res, d, err := m.Run(p, []value.Value{value.Int(arg)})
		if d != nil {
			t.Fatalf("unexpected deopt to pc %d", d.Frame.PC)
		}
		return res, err
	}
	expect := func(what string, p *Program, arg, want int32) {
		t.Helper()
		if r, err := run(p, arg); err != nil || r != value.Int(want) {
			t.Errorf("%s: got %v, %v; want %d", what, r, err, want)
		}
	}

	if _, err := run(&load, 0); err == nil {
		t.Error("reading g before it exists must raise")
	}
	expect("a store that adds g", &store, 5, 5)
	expect("a load after the add", &load, 0, 5)
	h.globals.Set("h", value.Int(1))
	h.globals.Set("g", value.Int(6))
	expect("a load after a global was added", &load, 0, 6)
	expect("a store after a global was added", &store, 7, 7)
	if h.globals.Get("h") != value.Int(1) {
		t.Error("the store to g clobbered h")
	}

	// A new global object with g at another offset.
	h.globals = value.NewObject(h.shapes, 0)
	h.globals.Set("a", value.Int(10))
	h.globals.Set("b", value.Int(11))
	h.globals.Set("g", value.Int(12))
	expect("a load from a new global object", &load, 0, 12)
	addr := m.Mem.SlotAddr(h.globals, 2)
	m.Cache.Reset()
	expect("a cached load", &load, 0, 12)
	if first := m.Cache.Access(addr); first != m.Cache.Access(addr) {
		t.Error("a cached load must touch g's slot address")
	}

	// A global add inside a transaction that aborts is rolled back: g is
	// undefined again, though the store's instruction saw it added.
	h.globals = value.NewObject(h.shapes, 0)
	m.HTM.Begin(nil, nil)
	m.installHook()
	expect("a store inside a transaction", &store, 8, 8)
	m.rollback()
	m.uninstallHook()
	if err := m.HTM.Abort(htm.AbortCheck); err != nil {
		t.Fatal(err)
	}
	if _, err := run(&load, 0); err == nil {
		t.Error("reading g after its add was rolled back must raise")
	}
	expect("a store after the rollback", &store, 9, 9)
	expect("a load after the rollback", &load, 0, 9)
}
