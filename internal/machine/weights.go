package machine

import (
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/value"
)

// Instruction weights: how many dynamic x86-64 instructions one IR op lowers
// to in each speculative tier. The FTL weights model LLVM's instruction
// selector operating on tagged 64-bit values (untag/retag sequences, write
// barriers, addressing arithmetic). DFG code is the same shape but less
// well scheduled and selected, so each op costs more (paper Table I: FTL is
// 41-64% faster than DFG). The values are calibrated so the Base
// configuration lands in the paper's measured regime of roughly one
// SMP-guarding check per 12 dynamic instructions (Figure 3).

// Weights maps IR ops to instruction counts.
type Weights struct {
	tier profile.Tier
}

// WeightsFor returns the weight table for a tier.
func WeightsFor(tier profile.Tier) Weights { return Weights{tier: tier} }

// blockEdgeCost models the branch/jump ending a block (compare instructions
// are already charged to the comparison ops; most plain edges are laid out
// as fallthrough, so the average is about one instruction).
const blockEdgeCost = 1

// Op returns the instruction weight of v, excluding dynamic effects
// (cache misses, callee execution) which the machine adds separately.
func (w Weights) Op(v *ir.Value) int64 {
	base := ftlOpWeight(v)
	if w.tier == profile.TierDFG {
		// DFG: poorer instruction selection and scheduling, more spills
		// (paper Table I: FTL is 41-64% faster than DFG).
		return base + (base+2)/3
	}
	return base
}

func ftlOpWeight(v *ir.Value) int64 {
	switch v.Op {
	case ir.OpConst, ir.OpParam, ir.OpOSRLocal, ir.OpPhi:
		return 0 // materialized into registers by the register allocator
	case ir.OpAddInt, ir.OpSubInt, ir.OpNegInt,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor,
		ir.OpShl, ir.OpShr, ir.OpUShr:
		return 2 // op + tag maintenance
	case ir.OpMulInt:
		return 3
	case ir.OpAddDouble, ir.OpSubDouble, ir.OpMulDouble, ir.OpNegDouble:
		return 2
	case ir.OpDivDouble:
		return 8
	case ir.OpModDouble:
		return 14
	case ir.OpIntToDouble, ir.OpNumberToDouble:
		return 2
	case ir.OpTruncDouble:
		return 3
	case ir.OpUint32ToDouble:
		return 2
	case ir.OpToBool:
		return 3
	case ir.OpNormalizeHole:
		return 2
	case ir.OpBoolNot:
		return 1
	case ir.OpCmpInt, ir.OpCmpDouble:
		return 2
	case ir.OpStrictEqGeneric:
		return 5

	// Checks: compare + conditional branch (+ a load for heap-state checks).
	case ir.OpCheckInt32, ir.OpCheckNumber:
		return 2
	case ir.OpCheckOverflow, ir.OpCheckUint32:
		return 1 // jo / test+js on the just-computed flags
	case ir.OpCheckShape:
		return 3 // load structure id, cmp imm, jne
	case ir.OpCheckArray:
		return 3
	case ir.OpCheckBounds:
		return 3 // load length, cmp, jae
	case ir.OpCheckNonNeg:
		return 1 // test+js on a register

	case ir.OpCheckHole:
		return 2
	case ir.OpCheckCallee:
		return 2

	// Dispatch-tree predicates: same comparison as the corresponding check,
	// but the branch targets a sibling way instead of a deopt stub.
	case ir.OpHasShape:
		return 3 // load structure id, cmp imm, setcc/jcc
	case ir.OpHasCallee:
		return 2
	case ir.OpTransition:
		return 8 // slot store + shape-word store + barriers (append fast path)

	case ir.OpLoadSlot:
		return 3 // base+offset load, untag
	case ir.OpStoreSlot:
		return 5 // retag, store, GC write barrier
	case ir.OpLoadElem:
		return 4 // butterfly load, index scale, load, untag
	case ir.OpStoreElem:
		return 6
	case ir.OpLoadLength:
		return 3
	case ir.OpLoadGlobal:
		return 2 // pc-relative load of cached global slot
	case ir.OpStoreGlobal:
		return 3

	case ir.OpMathOp:
		return value.MathFuncs[v.AuxInt].Weight
	case ir.OpCallDirect:
		return 12 + 2*int64(len(v.Args))
	case ir.OpCallRuntime:
		return 18 + 2*int64(len(v.Args))

	case ir.OpTxBegin:
		return 3 // xbegin + abort-handler address setup
	case ir.OpTxEnd:
		return 1
	case ir.OpTxTile:
		return 2 // footprint heuristic check at the back edge
	}
	return 2
}
