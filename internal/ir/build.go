package ir

import (
	"errors"
	"fmt"
	"slices"

	"nomap/internal/bytecode"
	"nomap/internal/ic"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Build constructs speculative SSA IR for a bytecode function using the
// Baseline tier's profile. This is where the paper's check-heavy code shape
// comes from: every speculation (int32 arithmetic, monomorphic property
// access, dense-array element access, known callee) is guarded by a check
// carrying a deoptimization Stack Map Point. SSA construction follows Braun
// et al.'s sealed-block algorithm.
//
// Build returns an error for functions the speculative tiers decline
// (closure users); the VM keeps those in Baseline.
func Build(bc *bytecode.Function, prof *profile.FunctionProfile) (*Func, error) {
	return build(bc, prof, -1)
}

// BuildOSR constructs an OSR-entry artifact for bc: SSA covering only the
// bytecode reachable from the loop header at entryPC, whose synthetic entry
// block defines every bytecode register as an OpOSRLocal bound from the
// incoming frame's locals (instead of OpParam values). The entry block falls
// through to the loop header, so for a reducible hot loop it is the header's
// unique out-of-loop predecessor — which is exactly where NoMap's transaction
// formation places TxBegin, making the loop transaction begin at the OSR
// entry itself.
func BuildOSR(bc *bytecode.Function, prof *profile.FunctionProfile, entryPC int) (*Func, error) {
	if entryPC <= 0 || entryPC >= len(bc.Code) {
		return nil, &UnsupportedError{Fn: bc.Name, Reason: fmt.Sprintf("OSR entry pc %d out of range", entryPC)}
	}
	return build(bc, prof, entryPC)
}

func build(bc *bytecode.Function, prof *profile.FunctionProfile, osrPC int) (*Func, error) {
	if bc.UsesClosure {
		return nil, &UnsupportedError{Fn: bc.Name, Reason: "uses closures; pinned to Baseline"}
	}
	b := &builder{
		bc:      bc,
		prof:    prof,
		f:       NewFunc(bc.Name, bc),
		osrPC:   osrPC,
		factInt: make(map[*Value]bool),
		factNum: make(map[*Value]bool),
	}
	b.f.OSREntryPC = osrPC
	if err := b.run(); err != nil {
		return nil, err
	}
	return b.f, nil
}

type builder struct {
	bc   *bytecode.Function
	prof *profile.FunctionProfile
	f    *Func

	// osrPC is the OSR-entry loop-header pc, or -1 for a normal build. An
	// OSR build only materializes blocks reachable from osrPC, and its
	// synthetic entry defines OSR locals instead of parameters.
	osrPC int

	// blocks holds each block's construction state, indexed by Block.ID.
	blocks []blockState

	cur *Block
	pc  int

	// Block-local checked facts for redundant-check elimination during
	// construction (modelling the DFG tier's existing check-removal passes,
	// paper §III-A1). Shape/array facts are invalidated by calls.
	factShape map[*Value]*value.Shape
	factArray map[*Value]bool
	// Value-permanent representation facts (SSA values are immutable).
	factInt map[*Value]bool
	factNum map[*Value]bool

	undef *Value

	maps mapArena // snapshot's stack maps
}

// blockState is the builder's state for one block: the bytecode it covers
// and Braun et al.'s per-block bookkeeping.
type blockState struct {
	start, end int // bytecode pcs [start, end); none for the synthetic entry

	sealed, filled bool
	defs           map[int]*Value // register -> its current value in the block
	incomplete     map[int]*Value // register -> operand-less phi until sealed
}

func (b *builder) run() error {
	g := bytecode.NewCFG(b.bc)
	first := 0
	if b.osrPC >= 0 {
		first = b.osrPC
		if !g.Leader(first) {
			// An OSR entry is the target of a backward jump, so it must start
			// a block; anything else is a caller bug.
			return &UnsupportedError{Fn: b.bc.Name, Reason: fmt.Sprintf("OSR entry pc %d is not a block leader", b.osrPC)}
		}
	}
	header := b.buildCFG(g, first)

	// Synthetic entry holding the initial register state: parameters plus
	// undefined for a normal build, the incoming frame's locals (as
	// OpOSRLocal values) for an OSR-entry build.
	entry := b.f.Blocks[len(b.f.Blocks)-1] // created last in buildCFG
	b.f.Entry = entry
	es := &b.blocks[entry.ID]
	es.sealed, es.filled = true, true
	b.undef = entry.NewValue(OpConst, TypeGeneric)
	b.undef.AuxVal = value.Undefined()
	if b.osrPC >= 0 {
		for i := 0; i < b.bc.NumRegs; i++ {
			p := entry.NewValue(OpOSRLocal, TypeGeneric)
			p.AuxInt = int64(i)
			b.writeVar(entry, i, p)
		}
	} else {
		for i := 0; i < b.bc.NumParams; i++ {
			p := entry.NewValue(OpParam, TypeGeneric)
			p.AuxInt = int64(i)
			b.writeVar(entry, i, p)
		}
		for i := b.bc.NumParams; i < b.bc.NumRegs; i++ {
			b.writeVar(entry, i, b.undef)
		}
	}
	b.maybeSeal(header)

	for _, blk := range b.f.Blocks[:entry.ID] {
		if err := b.fillBlock(blk); err != nil {
			return err
		}
	}
	b.removeTrivialPhis()
	return nil
}

// buildCFG creates an IR block for every block of g reachable from the one
// starting at pc first, in pc order, then the synthetic entry, and wires
// their edges in g's successor order. It returns the block at first.
func (b *builder) buildCFG(g *bytecode.CFG, first int) *Block {
	// An OSR build only materializes the blocks reachable from the entry
	// header; code before the loop (and anything else unreachable from it)
	// never gets a block, which keeps the artifact free of dangling phis.
	head := g.BlockOf(first)
	reach := g.Reachable(head)
	irOf := make([]*Block, len(g.Blocks))
	for i, cb := range g.Blocks {
		if reach[i] {
			irOf[i] = b.f.NewBlock()
			b.blocks = append(b.blocks, blockState{start: cb.Start, end: cb.End})
		}
	}
	for i, cb := range g.Blocks {
		blk := irOf[i]
		if blk == nil {
			continue
		}
		for _, s := range cb.Succs {
			AddEdge(blk, irOf[s])
		}
		blk.Kind = [...]BlockKind{BlockReturn, BlockPlain, BlockIf}[len(blk.Succs)]
		blk.BackEdge = cb.BackEdge
	}
	entry := b.f.NewBlock()
	b.blocks = append(b.blocks, blockState{})
	AddEdge(entry, irOf[head])
	return irOf[head]
}

// --- Braun SSA construction ---

func (b *builder) writeVar(blk *Block, reg int, v *Value) {
	st := &b.blocks[blk.ID]
	if st.defs == nil {
		st.defs = make(map[int]*Value)
	}
	st.defs[reg] = v
}

func (b *builder) readVar(blk *Block, reg int) *Value {
	if v, ok := b.blocks[blk.ID].defs[reg]; ok {
		return v
	}
	return b.readVarRecursive(blk, reg)
}

func (b *builder) readVarRecursive(blk *Block, reg int) *Value {
	var v *Value
	switch st := &b.blocks[blk.ID]; {
	case !st.sealed:
		phi := blk.InsertValueAt(0, OpPhi, TypeGeneric)
		if st.incomplete == nil {
			st.incomplete = make(map[int]*Value)
		}
		st.incomplete[reg] = phi
		v = phi
	case len(blk.Preds) == 1:
		v = b.readVar(blk.Preds[0], reg)
	default:
		phi := blk.InsertValueAt(0, OpPhi, TypeGeneric)
		b.writeVar(blk, reg, phi)
		b.addPhiOperands(phi, reg)
		return phi
	}
	b.writeVar(blk, reg, v)
	return v
}

func (b *builder) addPhiOperands(phi *Value, reg int) {
	for _, p := range phi.Block.Preds {
		phi.Args = append(phi.Args, b.readVar(p, reg))
	}
	phi.Type = mergeTypes(phi.Args)
}

func mergeTypes(vals []*Value) Type {
	t := TypeGeneric
	for i, v := range vals {
		if v == nil {
			continue
		}
		if i == 0 || t == TypeGeneric {
			t = v.Type
		} else if v.Type != t {
			return TypeGeneric
		}
	}
	return t
}

func (b *builder) maybeSeal(blk *Block) {
	st := &b.blocks[blk.ID]
	if st.sealed {
		return
	}
	for _, p := range blk.Preds {
		if !b.blocks[p.ID].filled {
			return
		}
	}
	st.sealed = true
	// Complete pending phis in register order: operand lookup can create
	// new values, so map-order iteration would make numbering nondeterministic.
	regs := make([]int, 0, len(st.incomplete))
	for reg := range st.incomplete {
		regs = append(regs, reg)
	}
	slices.Sort(regs)
	for _, reg := range regs {
		b.addPhiOperands(st.incomplete[reg], reg)
	}
	st.incomplete = nil
}

// removeTrivialPhis iteratively replaces phis whose operands are all the
// same value (or the phi itself) with that value, forwarding every use,
// including stack maps. Operands are read through the forwarding table, so
// a phi whose operand was found trivial sees that operand's replacement.
func (b *builder) removeTrivialPhis() {
	f := b.f
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			for _, v := range blk.Values {
				if v.Op != OpPhi {
					continue
				}
				var same *Value
				trivial := true
				for _, a := range v.Args {
					a = f.Resolve(a)
					if a == v || a == same {
						continue
					}
					if same != nil {
						trivial = false
						break
					}
					same = a
				}
				if trivial && same != nil {
					f.Forward(v, same)
					blk.RemoveValue(v)
					changed = true
				}
			}
		}
	}
	f.ApplyForwarding()
}

// snapshot captures the Stack Map for the current bytecode pc: the Baseline
// register state that deoptimization must materialize.
func (b *builder) snapshot() *StackMap {
	sm := b.maps.newMap(b.pc, b.bc.NumRegs)
	for r := range sm.Entries {
		sm.Entries[r] = StackMapEntry{Reg: r, Val: b.readVar(b.cur, r)}
	}
	return sm
}

// --- block filling ---

func (b *builder) invalidateHeapFacts() {
	b.factShape = make(map[*Value]*value.Shape)
	b.factArray = make(map[*Value]bool)
}

func (b *builder) fillBlock(blk *Block) error {
	b.cur = blk
	b.maybeSeal(blk) // seals unreachable blocks (no predecessors)
	b.invalidateHeapFacts()
	st := &b.blocks[blk.ID]
	blk.StartPC = st.start
	b.pc = st.start
	blk.EntryState = b.snapshot()
	for pc := st.start; pc < st.end; pc++ {
		b.pc = pc
		if err := b.instr(b.bc.Code[pc]); err != nil {
			return err
		}
	}
	st.filled = true
	for _, s := range blk.Succs {
		b.maybeSeal(s)
	}
	return nil
}

func (b *builder) emit(op Op, t Type, args ...*Value) *Value {
	v := b.cur.NewValue(op, t, args...)
	v.BCPos = b.pc
	return v
}

// emitCheck creates a guarded check with a fresh Stack Map Point.
func (b *builder) emitCheck(op Op, class stats.CheckClass, args ...*Value) *Value {
	v := b.emit(op, TypeNone, args...)
	v.Check = class
	v.Deopt = b.snapshot()
	return v
}

func (b *builder) constVal(val value.Value) *Value {
	t := TypeGeneric
	switch val.Kind() {
	case value.KindInt32:
		t = TypeInt32
	case value.KindDouble:
		t = TypeDouble
	case value.KindBool:
		t = TypeBool
	case value.KindString:
		t = TypeString
	case value.KindObject:
		t = TypeObject
	}
	v := b.emit(OpConst, t)
	v.AuxVal = val
	return v
}

// ensureInt32 returns vv usable as int32, inserting a type check when the
// static type does not already guarantee it.
func (b *builder) ensureInt32(v *Value) *Value {
	if v.Type == TypeInt32 || b.factInt[v] {
		return v
	}
	b.emitCheck(OpCheckInt32, stats.CheckType, v)
	b.factInt[v] = true
	return v
}

// ensureDouble returns a double-typed view of v, checking it is numeric
// first when needed.
func (b *builder) ensureDouble(v *Value) *Value {
	switch v.Type {
	case TypeDouble:
		return v
	case TypeInt32:
		return b.emit(OpIntToDouble, TypeDouble, v)
	}
	if !b.factNum[v] && !b.factInt[v] {
		b.emitCheck(OpCheckNumber, stats.CheckType, v)
		b.factNum[v] = true
	}
	return b.emit(OpNumberToDouble, TypeDouble, v)
}

// ensureArray checks v is a dense array (once per block per value).
func (b *builder) ensureArray(v *Value) {
	if b.factArray[v] {
		return
	}
	b.emitCheck(OpCheckArray, stats.CheckType, v)
	b.factArray[v] = true
}

// ensureShape checks v has the given shape (once per block per value,
// invalidated by calls).
func (b *builder) ensureShape(v *Value, shape *value.Shape) {
	if b.factShape[v] == shape {
		return
	}
	chk := b.emitCheck(OpCheckShape, stats.CheckProperty, v)
	chk.Shape = shape
	b.factShape[v] = shape
}

func (b *builder) toBool(v *Value) *Value {
	if v.Type == TypeBool {
		return v
	}
	return b.emit(OpToBool, TypeBool, v)
}

// runtimeCall emits a generic runtime call (full barrier).
func (b *builder) runtimeCall(entry string, aux int64, t Type, args ...*Value) *Value {
	v := b.emit(OpCallRuntime, t, args...)
	v.AuxStr = entry
	v.AuxInt = aux
	b.invalidateHeapFacts()
	return v
}

func (b *builder) instr(in bytecode.Instr) error {
	if in.Op.EndsBlock() {
		return b.terminator(in)
	}
	switch in.Op {
	case bytecode.OpNop:
		return nil

	case bytecode.OpLoadConst:
		b.writeVar(b.cur, int(in.A), b.constVal(b.bc.Consts[in.B]))
	case bytecode.OpLoadUndef:
		b.writeVar(b.cur, int(in.A), b.undef)
	case bytecode.OpMove:
		b.writeVar(b.cur, int(in.A), b.readVar(b.cur, int(in.B)))

	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul,
		bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor,
		bytecode.OpShl, bytecode.OpShr, bytecode.OpUShr,
		bytecode.OpLess, bytecode.OpLessEq, bytecode.OpGreater,
		bytecode.OpGreaterEq, bytecode.OpEq, bytecode.OpNeq,
		bytecode.OpStrictEq, bytecode.OpStrictNeq:
		return b.binary(in)

	case bytecode.OpNeg:
		v := b.readVar(b.cur, int(in.B))
		fb := &b.prof.Arith[b.pc]
		switch {
		case fb.IntOnly() && (v.Type == TypeInt32 || v.Type == TypeGeneric):
			v = b.ensureInt32(v)
			r := b.emit(OpNegInt, TypeInt32, v)
			b.emitCheck(OpCheckOverflow, stats.CheckOverflow, r)
			b.writeVar(b.cur, int(in.A), r)
		case fb.NumberOnly():
			d := b.ensureDouble(v)
			b.writeVar(b.cur, int(in.A), b.emit(OpNegDouble, TypeDouble, d))
		default:
			b.writeVar(b.cur, int(in.A), b.runtimeCall("unop", int64(in.Op), TypeGeneric, v))
		}

	case bytecode.OpNot:
		v := b.readVar(b.cur, int(in.B))
		b.writeVar(b.cur, int(in.A), b.emit(OpBoolNot, TypeBool, b.toBool(v)))

	case bytecode.OpBitNot:
		v := b.readVar(b.cur, int(in.B))
		fb := &b.prof.Arith[b.pc]
		if fb.IntOnly() {
			v = b.ensureInt32(v)
			allOnes := b.constVal(value.Int(-1))
			b.writeVar(b.cur, int(in.A), b.emit(OpBitXor, TypeInt32, v, allOnes))
		} else {
			b.writeVar(b.cur, int(in.A), b.runtimeCall("unop", int64(in.Op), TypeGeneric, v))
		}

	case bytecode.OpTypeof:
		v := b.readVar(b.cur, int(in.B))
		b.writeVar(b.cur, int(in.A), b.runtimeCall("typeof", 0, TypeString, v))

	case bytecode.OpToNumber:
		v := b.readVar(b.cur, int(in.B))
		if v.Type == TypeInt32 || v.Type == TypeDouble || b.factInt[v] || b.factNum[v] {
			b.writeVar(b.cur, int(in.A), v)
		} else {
			fb := &b.prof.Arith[b.pc]
			if fb.NumberOnly() || fb.IntOnly() {
				b.emitCheck(OpCheckNumber, stats.CheckType, v)
				b.factNum[v] = true
				b.writeVar(b.cur, int(in.A), v)
			} else {
				b.writeVar(b.cur, int(in.A), b.runtimeCall("tonumber", 0, TypeGeneric, v))
			}
		}

	case bytecode.OpAddK, bytecode.OpSubK, bytecode.OpMulK:
		// Const-fused arithmetic expands to the same speculative IR as the
		// ldc+binop pair it replaced; the constant operand simply never
		// occupies a bytecode register.
		base := map[bytecode.Op]bytecode.Op{
			bytecode.OpAddK: bytecode.OpAdd,
			bytecode.OpSubK: bytecode.OpSub,
			bytecode.OpMulK: bytecode.OpMul,
		}[in.Op]
		l := b.readVar(b.cur, int(in.B))
		r := b.constVal(b.bc.Consts[in.C])
		return b.binaryVals(base, int(in.A), l, r)

	case bytecode.OpIncr:
		// reg = ToNumber(reg) + delta. Under numeric feedback the ToNumber
		// collapses into the type check binaryVals' ensure* inserts; the
		// generic path keeps the explicit coercion.
		x := b.readVar(b.cur, int(in.A))
		fb := &b.prof.Arith[b.pc]
		d := b.constVal(value.Int(in.B))
		if fb.IntOnly() || fb.NumberOnly() {
			return b.binaryVals(bytecode.OpAdd, int(in.A), x, d)
		}
		xn := b.runtimeCall("tonumber", 0, TypeGeneric, x)
		b.writeVar(b.cur, int(in.A), b.runtimeCall("binop", int64(bytecode.OpAdd), TypeGeneric, xn, d))

	case bytecode.OpCall:
		return b.call(in)
	case bytecode.OpCallMethod:
		return b.callMethod(in)
	case bytecode.OpNew:
		callee := b.readVar(b.cur, int(in.B))
		args := b.argValues(int(in.C), int(in.D))
		b.writeVar(b.cur, int(in.A), b.runtimeCall("construct", 0, TypeGeneric, append([]*Value{callee}, args...)...))

	case bytecode.OpNewObject:
		b.writeVar(b.cur, int(in.A), b.runtimeCall("newobject", int64(in.B), TypeObject))
	case bytecode.OpNewArray:
		b.writeVar(b.cur, int(in.A), b.runtimeCall("newarray", int64(in.B), TypeObject))

	case bytecode.OpGetProp:
		return b.getProp(in)
	case bytecode.OpSetProp:
		return b.setProp(in)
	case bytecode.OpGetElem:
		return b.getElem(in)
	case bytecode.OpSetElem:
		return b.setElem(in)
	case bytecode.OpSetElemI:
		obj := b.readVar(b.cur, int(in.A))
		idx := b.constVal(value.Int(in.B))
		src := b.readVar(b.cur, int(in.C))
		b.runtimeCall("setelem", 0, TypeNone, obj, idx, src)

	case bytecode.OpGetGlobal:
		v := b.emit(OpLoadGlobal, TypeGeneric)
		v.AuxStr = b.bc.Names[in.B]
		b.writeVar(b.cur, int(in.A), v)
	case bytecode.OpSetGlobal:
		v := b.emit(OpStoreGlobal, TypeNone, b.readVar(b.cur, int(in.B)))
		v.AuxStr = b.bc.Names[in.A]

	case bytecode.OpGetCell, bytecode.OpSetCell, bytecode.OpMakeClosure:
		return &UnsupportedError{Fn: b.bc.Name, Reason: fmt.Sprintf("closure op %v", in.Op)}

	default:
		return &UnsupportedError{Fn: b.bc.Name, Reason: fmt.Sprintf("unsupported bytecode op %v", in.Op)}
	}
	return nil
}

func (b *builder) terminator(in bytecode.Instr) error {
	switch in.Op {
	case bytecode.OpJump:
		// Edges prewired.
	case bytecode.OpJumpIfTrue, bytecode.OpJumpIfFalse:
		b.cur.Control = b.toBool(b.readVar(b.cur, int(in.A)))
	case bytecode.OpCmpJF, bytecode.OpCmpJT:
		l := b.readVar(b.cur, int(in.A))
		r := b.readVar(b.cur, int(in.B))
		b.cur.Control = b.toBool(b.compareVal(bytecode.Op(in.D), l, r))
	case bytecode.OpCmpKJF, bytecode.OpCmpKJT:
		l := b.readVar(b.cur, int(in.A))
		r := b.constVal(b.bc.Consts[in.B])
		b.cur.Control = b.toBool(b.compareVal(bytecode.Op(in.D), l, r))
	case bytecode.OpReturn:
		b.cur.Control = b.readVar(b.cur, int(in.A))
	}
	return nil
}

func (b *builder) argValues(start, n int) []*Value {
	args := make([]*Value, n)
	for i := 0; i < n; i++ {
		args[i] = b.readVar(b.cur, start+i)
	}
	return args
}

func (b *builder) binary(in bytecode.Instr) error {
	l := b.readVar(b.cur, int(in.B))
	r := b.readVar(b.cur, int(in.C))
	return b.binaryVals(in.Op, int(in.A), l, r)
}

// compareVal builds the speculative comparison l <op> r and returns the
// boolean (or generic, off the fast path) result value without writing a
// register — fused compare-and-branch terminators consume it as block
// control directly.
func (b *builder) compareVal(cop bytecode.Op, l, r *Value) *Value {
	fb := &b.prof.Arith[b.pc]
	cmp := cop.Cmp()
	switch {
	case fb.IntOnly():
		l, r = b.ensureInt32(l), b.ensureInt32(r)
		v := b.emit(OpCmpInt, TypeBool, l, r)
		v.AuxInt = int64(cmp)
		return v
	case fb.NumberOnly():
		ld, rd := b.ensureDouble(l), b.ensureDouble(r)
		v := b.emit(OpCmpDouble, TypeBool, ld, rd)
		v.AuxInt = int64(cmp)
		return v
	default:
		return b.runtimeCall("binop", int64(cop), TypeGeneric, l, r)
	}
}

// binaryVals is the binary-operator lowering on explicit operand values, so
// fused const-operand superinstructions share one code path with the plain
// register-register forms.
func (b *builder) binaryVals(op bytecode.Op, dst int, l, r *Value) error {
	fb := &b.prof.Arith[b.pc]

	if op.IsCompare() {
		b.writeVar(b.cur, dst, b.compareVal(op, l, r))
		return nil
	}

	in := bytecode.Instr{Op: op}
	switch in.Op {
	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul:
		switch {
		case fb.IntOnly():
			l, r = b.ensureInt32(l), b.ensureInt32(r)
			op := map[bytecode.Op]Op{bytecode.OpAdd: OpAddInt, bytecode.OpSub: OpSubInt, bytecode.OpMul: OpMulInt}[in.Op]
			v := b.emit(op, TypeInt32, l, r)
			b.emitCheck(OpCheckOverflow, stats.CheckOverflow, v)
			b.writeVar(b.cur, dst, v)
		case fb.NumberOnly():
			ld, rd := b.ensureDouble(l), b.ensureDouble(r)
			op := map[bytecode.Op]Op{bytecode.OpAdd: OpAddDouble, bytecode.OpSub: OpSubDouble, bytecode.OpMul: OpMulDouble}[in.Op]
			b.writeVar(b.cur, dst, b.emit(op, TypeDouble, ld, rd))
		default:
			b.writeVar(b.cur, dst, b.runtimeCall("binop", int64(in.Op), TypeGeneric, l, r))
		}
	case bytecode.OpDiv, bytecode.OpMod:
		if fb.NumberOnly() || fb.IntOnly() {
			ld, rd := b.ensureDouble(l), b.ensureDouble(r)
			op := OpDivDouble
			if in.Op == bytecode.OpMod {
				op = OpModDouble
			}
			b.writeVar(b.cur, dst, b.emit(op, TypeDouble, ld, rd))
		} else {
			b.writeVar(b.cur, dst, b.runtimeCall("binop", int64(in.Op), TypeGeneric, l, r))
		}
	case bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor,
		bytecode.OpShl, bytecode.OpShr, bytecode.OpUShr:
		op := map[bytecode.Op]Op{
			bytecode.OpBitAnd: OpBitAnd, bytecode.OpBitOr: OpBitOr,
			bytecode.OpBitXor: OpBitXor, bytecode.OpShl: OpShl,
			bytecode.OpShr: OpShr, bytecode.OpUShr: OpUShr,
		}[in.Op]
		// >>> sites whose result has escaped the int32 range widen the
		// result to a double instead of deopt-looping on the range check.
		finish := func(v *Value) {
			if in.Op != bytecode.OpUShr {
				b.writeVar(b.cur, dst, v)
				return
			}
			if fb.SawOverflow {
				b.writeVar(b.cur, dst, b.emit(OpUint32ToDouble, TypeDouble, v))
				return
			}
			b.emitCheck(OpCheckUint32, stats.CheckOverflow, v)
			b.writeVar(b.cur, dst, v)
		}
		switch {
		case fb.IntOperands():
			l, r = b.ensureInt32(l), b.ensureInt32(r)
			finish(b.emit(op, TypeInt32, l, r))
		case fb.NumberOnly():
			// Doubles feeding bitops: truncate per ToInt32 first.
			lt := b.emit(OpTruncDouble, TypeInt32, b.ensureDouble(l))
			rt := b.emit(OpTruncDouble, TypeInt32, b.ensureDouble(r))
			finish(b.emit(op, TypeInt32, lt, rt))
		default:
			b.writeVar(b.cur, dst, b.runtimeCall("binop", int64(in.Op), TypeGeneric, l, r))
		}
	}
	return nil
}

func (b *builder) getProp(in bytecode.Instr) error {
	obj := b.readVar(b.cur, int(in.B))
	name := b.bc.Names[in.C]
	pic := &b.prof.ICs[in.D]
	dst := int(in.A)
	switch {
	case pic.SawArrayLength && !pic.Poly && pic.Shape == nil && !pic.SawNonObject:
		b.ensureArray(obj)
		b.writeVar(b.cur, dst, b.emit(OpLoadLength, TypeInt32, obj))
	case pic.Monomorphic():
		b.ensureShape(obj, pic.Shape)
		v := b.emit(OpLoadSlot, TypeGeneric, obj)
		v.AuxInt = int64(pic.Offset)
		b.writeVar(b.cur, dst, v)
	default:
		// Generic-call placeholder: already correct on its own. A qualifying
		// polymorphic site additionally carries a dispatch plan (plus the
		// snapshot its tail guard will deopt through) for ExpandDispatch.
		nameC := b.constVal(value.Str(name))
		v := b.runtimeCall("getprop", 0, TypeGeneric, obj, nameC)
		if pl := ic.PropPlan(pic, name, false); pl != nil {
			v.Plan = pl
			v.Deopt = b.snapshot()
		}
		b.writeVar(b.cur, dst, v)
	}
	return nil
}

func (b *builder) setProp(in bytecode.Instr) error {
	obj := b.readVar(b.cur, int(in.A))
	name := b.bc.Names[in.B]
	src := b.readVar(b.cur, int(in.C))
	pic := &b.prof.ICs[in.D]
	if pic.Monomorphic() && pic.NewShape == nil {
		b.ensureShape(obj, pic.Shape)
		v := b.emit(OpStoreSlot, TypeNone, obj, src)
		v.AuxInt = int64(pic.Offset)
		return nil
	}
	nameC := b.constVal(value.Str(name))
	v := b.runtimeCall("setprop", 0, TypeNone, obj, nameC, src)
	if pl := ic.PropPlan(pic, name, true); pl != nil {
		v.Plan = pl
		v.Deopt = b.snapshot()
	}
	return nil
}

func (b *builder) getElem(in bytecode.Instr) error {
	obj := b.readVar(b.cur, int(in.B))
	idx := b.readVar(b.cur, int(in.C))
	fb := &b.prof.Elem[b.pc]
	dst := int(in.A)
	if fb.FastArray() && !fb.SawOOB {
		b.ensureArray(obj)
		idx = b.ensureInt32(idx)
		b.emitCheck(OpCheckBounds, stats.CheckBounds, obj, idx)
		raw := b.emit(OpLoadElem, TypeGeneric, obj, idx)
		if fb.SawHole {
			b.writeVar(b.cur, dst, b.emit(OpNormalizeHole, TypeGeneric, raw))
		} else {
			b.emitCheck(OpCheckHole, stats.CheckOther, raw)
			b.writeVar(b.cur, dst, raw)
		}
		return nil
	}
	b.writeVar(b.cur, dst, b.runtimeCall("getelem", 0, TypeGeneric, obj, idx))
	return nil
}

func (b *builder) setElem(in bytecode.Instr) error {
	obj := b.readVar(b.cur, int(in.A))
	idx := b.readVar(b.cur, int(in.B))
	src := b.readVar(b.cur, int(in.C))
	fb := &b.prof.Elem[b.pc]
	if fb.FastArray() && !fb.SawOOB {
		b.ensureArray(obj)
		idx = b.ensureInt32(idx)
		if fb.SawAppend {
			// Sequential-growth sites: the store op itself elongates the
			// array, so a full bounds check would fail on every append. Only
			// negative indices must bail (they are named-property stores).
			b.emitCheck(OpCheckNonNeg, stats.CheckBounds, idx)
		} else {
			b.emitCheck(OpCheckBounds, stats.CheckBounds, obj, idx)
		}
		b.emit(OpStoreElem, TypeNone, obj, idx, src)
		return nil
	}
	b.runtimeCall("setelem", 0, TypeNone, obj, idx, src)
	return nil
}

func (b *builder) call(in bytecode.Instr) error {
	callee := b.readVar(b.cur, int(in.B))
	args := b.argValues(int(in.C), int(in.D))
	fb := &b.prof.Calls[b.pc]
	dst := int(in.A)
	if fb.Monomorphic() {
		chk := b.emitCheck(OpCheckCallee, stats.CheckOther, callee)
		chk.Callee = fb.Target
		call := b.emit(OpCallDirect, TypeGeneric, append([]*Value{b.undef}, args...)...)
		call.Callee = fb.Target
		b.invalidateHeapFacts()
		b.writeVar(b.cur, dst, call)
		return nil
	}
	v := b.runtimeCall("call", 0, TypeGeneric, append([]*Value{callee}, args...)...)
	if pl := ic.CallPlan(fb); pl != nil {
		v.Plan = pl
		v.Deopt = b.snapshot()
	}
	b.writeVar(b.cur, dst, v)
	return nil
}

func (b *builder) callMethod(in bytecode.Instr) error {
	recv := b.readVar(b.cur, int(in.B))
	name := b.bc.Names[in.E]
	args := b.argValues(int(in.C), int(in.D))
	fb := &b.prof.Calls[b.pc]
	dst := int(in.A)

	if fb.Monomorphic() && fb.RecvShape != nil {
		if off := fb.RecvShape.Lookup(name); off >= 0 {
			b.ensureShape(recv, fb.RecvShape)
			m := b.emit(OpLoadSlot, TypeGeneric, recv)
			m.AuxInt = int64(off)
			chk := b.emitCheck(OpCheckCallee, stats.CheckOther, m)
			chk.Callee = fb.Target
			// Every value.MathFuncs entry is an intrinsic, inlined after the
			// callee check (JavaScriptCore does the same via DFG intrinsics).
			if i := value.MathIndex(name); i >= 0 && fb.Target.IsNative() && fb.Target.Name == name && len(args) == value.MathFuncs[i].Arity {
				var dargs []*Value
				for _, a := range args {
					dargs = append(dargs, b.ensureDouble(a))
				}
				mo := b.emit(OpMathOp, TypeDouble, dargs...)
				mo.AuxStr, mo.AuxInt = name, int64(i)
				b.writeVar(b.cur, dst, mo)
				return nil
			}
			call := b.emit(OpCallDirect, TypeGeneric, append([]*Value{recv}, args...)...)
			call.Callee = fb.Target
			b.invalidateHeapFacts()
			b.writeVar(b.cur, dst, call)
			return nil
		}
	}
	nameC := b.constVal(value.Str(name))
	v := b.runtimeCall("callmethod", 0, TypeGeneric, append([]*Value{recv, nameC}, args...)...)
	if pl := ic.MethodPlan(fb, name); pl != nil {
		v.Plan = pl
		v.Deopt = b.snapshot()
	}
	b.writeVar(b.cur, dst, v)
	return nil
}

// UnsupportedError marks a function the speculative tiers can never compile:
// closure use or a bytecode op with no IR lowering. It is deterministic —
// retrying the compile cannot succeed — which is what entitles the JIT driver
// to pin the function to Baseline permanently. Transient compile errors must
// NOT use this type: they are retried a bounded number of times instead.
type UnsupportedError struct {
	Fn     string
	Reason string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("ir: %s: %s", e.Fn, e.Reason)
}

// IsUnsupported reports whether err is (or wraps) a deterministic
// unsupported-function compile error.
func IsUnsupported(err error) bool {
	var u *UnsupportedError
	return errors.As(err, &u)
}
