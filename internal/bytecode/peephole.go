package bytecode

// Peephole superinstruction fusion. The compiler's straightforward codegen
// produces recurring multi-instruction idioms — load-const-then-binop,
// compare-then-branch, and the five-instruction ++/-- expansion — each paying
// a full dispatch per instruction in the bytecode tiers. Fuse rewrites them
// into single superinstructions (OpAddK/OpSubK/OpMulK, OpCmpJF/OpCmpJT/
// OpCmpKJF/OpCmpKJT, OpIncr) after codegen and before any profile, artifact,
// or frame exists, so every tier sees one consistent code array and one pc
// space.
//
// Safety rules:
//   - No block starts inside a pattern: fusion never crosses a basic-block
//     boundary, so OSR-entry headers and branch targets stay addressable.
//     (No pattern holds a block-ending instruction before its last, so the
//     blocks starting inside one would be exactly its jump targets.)
//   - Eliminated intermediate registers must be expression temporaries
//     (>= NumLocals) and dead after the pattern, proven by a backward
//     liveness dataflow over the CFG — not just by their register range,
//     since logical-operator codegen branches on live registers.
//   - The fused instruction occupies the pattern's first pc; every later
//     profile (arith feedback, IC slots) and deopt/OSR site is allocated
//     against the fused code, so there are no profiling-site seams.

// Fuse rewrites fn's code in place, fusing superinstruction patterns and
// remapping jump targets. It must run once, immediately after codegen.
func Fuse(fn *Function) {
	if len(fn.Code) == 0 {
		return
	}
	g := NewCFG(fn)
	liveOut := liveness(fn, g)

	code := fn.Code
	out := make([]Instr, 0, len(code))
	oldToNew := make([]int, len(code)+1)
	pc := 0
	for pc < len(code) {
		in, n := fuseAt(fn, pc, liveOut, g)
		if n == 0 {
			oldToNew[pc] = len(out)
			out = append(out, code[pc])
			pc++
			continue
		}
		for i := 0; i < n; i++ {
			oldToNew[pc+i] = len(out)
		}
		out = append(out, in)
		pc += n
	}
	oldToNew[len(code)] = len(out)

	for i := range out {
		if t := out[i].Target(); t >= 0 {
			out[i].SetTarget(oldToNew[t])
		}
	}
	fn.Code = out
}

// FuseTree fuses fn and every nested function.
func FuseTree(fn *Function) {
	Fuse(fn)
	for _, nested := range fn.Funcs {
		FuseTree(nested)
	}
}

// fuseAt tries every pattern anchored at pc, longest first, and returns the
// fused instruction plus the number of instructions consumed (0 = no match).
func fuseAt(fn *Function, pc int, liveOut []bitset, g *CFG) (Instr, int) {
	code := fn.Code
	nl := fn.NumLocals
	temp := func(r int32) bool { return int(r) >= nl }
	// deadAfter reports that register r holds no live value after code[last]:
	// either it is not live-out, or instruction redef (an index into the
	// pattern) overwrote it before any later read.
	deadAfter := func(last int, r int32) bool { return !liveOut[last].has(int(r)) }
	interiorFree := func(n int) bool {
		if pc+n > len(code) {
			return false
		}
		for i := 1; i < n; i++ {
			if g.Leader(pc + i) {
				return false
			}
		}
		return true
	}
	in0 := code[pc]

	// INCR: the ++/-- expansion on a local —
	//   tonum t1, x; ldc t2, #1; add|sub t3, t1, t2; mov x, t3; mov t4, (t3|t1)
	// with every temporary dead after the pattern (the expression result
	// unused), becomes: incr x, ±1.
	if in0.Op == OpToNumber && interiorFree(5) {
		i1, i2, i3, i4 := code[pc+1], code[pc+2], code[pc+3], code[pc+4]
		x, t1 := in0.B, in0.A
		if i1.Op == OpLoadConst && (i2.Op == OpAdd || i2.Op == OpSub) &&
			i3.Op == OpMove && i4.Op == OpMove {
			t2, t3, t4 := i1.A, i2.A, i4.A
			kv := fn.Consts[i1.B]
			if int(x) < nl && temp(t1) && temp(t2) && temp(t3) && temp(t4) &&
				kv.IsInt32() && kv.Int32() == 1 &&
				i2.B == t1 && i2.C == t2 &&
				i3.A == x && i3.B == t3 &&
				(i4.B == t3 || i4.B == t1) &&
				x != t1 && x != t2 && x != t3 && x != t4 &&
				deadAfter(pc+4, t1) && deadAfter(pc+4, t2) &&
				deadAfter(pc+4, t3) && deadAfter(pc+4, t4) {
				delta := int32(1)
				if i2.Op == OpSub {
					delta = -1
				}
				return Instr{Op: OpIncr, A: x, B: delta, Line: in0.Line}, 5
			}
		}
	}

	// CmpKJF/CmpKJT: ldc t1, #K; cmp t2, a, t1; jf|jt t2, L  →  cmpkjf a, #K @L
	if in0.Op == OpLoadConst && interiorFree(3) {
		i1, i2 := code[pc+1], code[pc+2]
		if i1.Op.IsCompare() && (i2.Op == OpJumpIfFalse || i2.Op == OpJumpIfTrue) {
			t1, t2 := in0.A, i1.A
			if temp(t1) && temp(t2) && i1.C == t1 && i1.B != t1 && i2.A == t2 &&
				(t1 == t2 || deadAfter(pc+2, t1)) && deadAfter(pc+2, t2) {
				op := OpCmpKJF
				if i2.Op == OpJumpIfTrue {
					op = OpCmpKJT
				}
				fused := Instr{Op: op, A: i1.B, B: in0.B, D: int32(i1.Op), Line: i1.Line}
				fused.SetTarget(i2.Target())
				return fused, 3
			}
		}
	}

	// AddK/SubK/MulK: ldc t, #K; add|sub|mul d, a, t  →  addk d, a, #K.
	// Only right-operand constants fuse: + is not commutative once strings
	// are involved, so operand order is preserved exactly.
	if in0.Op == OpLoadConst && interiorFree(2) {
		i1 := code[pc+1]
		var op Op
		switch i1.Op {
		case OpAdd:
			op = OpAddK
		case OpSub:
			op = OpSubK
		case OpMul:
			op = OpMulK
		}
		if op != 0 {
			t := in0.A
			if temp(t) && i1.C == t && i1.B != t &&
				(t == i1.A || deadAfter(pc+1, t)) {
				return Instr{Op: op, A: i1.A, B: i1.B, C: in0.B, Line: i1.Line}, 2
			}
		}
	}

	// CmpJF/CmpJT: cmp t, a, b; jf|jt t, L  →  cmpjf a, b @L with the dead
	// boolean register eliminated.
	if in0.Op.IsCompare() && interiorFree(2) {
		i1 := code[pc+1]
		if (i1.Op == OpJumpIfFalse || i1.Op == OpJumpIfTrue) && i1.A == in0.A &&
			temp(in0.A) && deadAfter(pc+1, in0.A) {
			op := OpCmpJF
			if i1.Op == OpJumpIfTrue {
				op = OpCmpJT
			}
			fused := Instr{Op: op, A: in0.B, B: in0.C, D: int32(in0.Op), Line: in0.Line}
			fused.SetTarget(i1.Target())
			return fused, 2
		}
	}

	return Instr{}, 0
}

// --- instruction-level liveness ---

type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// or unions src into b.
func (b bitset) or(src bitset) {
	for i, w := range src {
		b[i] |= w
	}
}

// instrDef returns the register defined by in, or -1.
func instrDef(in Instr) int {
	switch in.Op {
	case OpLoadConst, OpLoadUndef, OpMove, OpNeg, OpNot, OpBitNot, OpTypeof,
		OpToNumber, OpCall, OpCallMethod, OpNew, OpNewObject, OpNewArray,
		OpGetProp, OpGetElem, OpGetGlobal, OpGetCell, OpMakeClosure,
		OpAddK, OpSubK, OpMulK, OpIncr:
		return int(in.A)
	}
	if in.Op.IsBinary() {
		return int(in.A)
	}
	return -1
}

// instrUses invokes use for every register read by in, including call
// argument windows.
func instrUses(in Instr, use func(int)) {
	switch in.Op {
	case OpMove, OpNeg, OpNot, OpBitNot, OpTypeof, OpToNumber:
		use(int(in.B))
	case OpJumpIfTrue, OpJumpIfFalse, OpReturn:
		use(int(in.A))
	case OpCall, OpNew, OpCallMethod:
		use(int(in.B))
		for i := int32(0); i < in.D; i++ {
			use(int(in.C + i))
		}
	case OpGetProp:
		use(int(in.B))
	case OpSetProp:
		use(int(in.A))
		use(int(in.C))
	case OpGetElem:
		use(int(in.B))
		use(int(in.C))
	case OpSetElem:
		use(int(in.A))
		use(int(in.B))
		use(int(in.C))
	case OpSetElemI:
		use(int(in.A))
		use(int(in.C))
	case OpSetGlobal:
		use(int(in.B))
	case OpSetCell:
		use(int(in.C))
	case OpAddK, OpSubK, OpMulK:
		use(int(in.B))
	case OpIncr:
		use(int(in.A))
	case OpCmpJF, OpCmpJT:
		use(int(in.A))
		use(int(in.B))
	case OpCmpKJF, OpCmpKJT:
		use(int(in.A))
	default:
		if in.Op.IsBinary() {
			use(int(in.B))
			use(int(in.C))
		}
	}
}

// liveness computes per-instruction live-out register sets: a backward
// fixpoint over g's blocks on their use/def summaries, then one backward pass
// per block from its live-out. Every set is carved from one arena.
func liveness(fn *Function, g *CFG) []bitset {
	words := (fn.NumRegs + 64) / 64
	arena := make(bitset, (len(fn.Code)+3*len(g.Blocks))*words)
	sets := func(k int) []bitset {
		s := make([]bitset, k)
		for i := range s {
			s[i], arena = arena[:words:words], arena[words:]
		}
		return s
	}
	// A block's live-out is its last instruction's. use holds the registers
	// a block reads before writing them, def those it writes.
	liveOut := sets(len(fn.Code))
	use, def, in := sets(len(g.Blocks)), sets(len(g.Blocks)), sets(len(g.Blocks))
	for b, blk := range g.Blocks {
		for pc := blk.End - 1; pc >= blk.Start; pc-- {
			transfer(fn.Code[pc], use[b])
			if d := instrDef(fn.Code[pc]); d >= 0 {
				def[b].set(d)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for b := len(g.Blocks) - 1; b >= 0; b-- {
			out := liveOut[g.Blocks[b].End-1]
			for _, s := range g.Blocks[b].Succs {
				out.or(in[s])
			}
			for w := range in[b] {
				if live := use[b][w] | out[w]&^def[b][w]; live != in[b][w] {
					in[b][w], changed = live, true
				}
			}
		}
	}
	for _, blk := range g.Blocks {
		for pc := blk.End - 1; pc > blk.Start; pc-- {
			copy(liveOut[pc-1], liveOut[pc])
			transfer(fn.Code[pc], liveOut[pc-1])
		}
	}
	return liveOut
}

// transfer turns the registers live after in into those live before it.
func transfer(in Instr, live bitset) {
	if d := instrDef(in); d >= 0 {
		live.clear(d)
	}
	instrUses(in, live.set)
}
