package interp

// Dynamic x86-64-equivalent instruction costs for the two bytecode tiers.
//
// The Interpreter pays a dispatch loop (fetch, decode, indirect jump) per
// bytecode op on top of fully generic operand handling. The Baseline tier is
// templated machine code: no dispatch, inline int32 fast paths, monomorphic
// inline caches, but still generic runtime calls off the fast path. The
// values below were calibrated so the tier speedups land in the regime of
// the paper's Table I (Baseline ≈ 2x interpreter, FTL ≈ 10-15x).
const (
	interpDispatchCost = 26 // fetch/decode/dispatch + operand decode
	baselineBaseCost   = 6  // templated code: operand loads, tag checks

	propICHitCost = 5  // shape compare, load at cached offset
	propMissCost  = 32 // runtime call with hash lookup
	elemCost      = 14 // runtime call: type+bounds+hole handling

	// Costs both tiers pay alike.
	costMove     int64 = 1
	costSlowCall int64 = 14
	costReturn   int64 = 4
	costAlloc    int64 = 28
)

// costArith models the arithmetic paths. Baseline inlines an int32 fast path
// and calls the runtime for anything else; the interpreter always pays
// generic operand handling. The boxed fast path (NaN-boxed registers, raw
// int32 payload arithmetic with no box/unbox round trip) shaves the
// box/unbox load/store traffic off both tiers; int operands on an op the
// fast path declines (Div, Mod) take the generic fallback at the unboxed cost.
func costArith(baseline, bothInt, boxed bool) int64 {
	if baseline {
		if bothInt {
			if boxed {
				return 10 // tag check, op, overflow branch, retag — one word
			}
			return 12 // untag, op, overflow branch, retag
		}
		return 24 // runtime call: full ToNumber/concat semantics
	}
	if bothInt && boxed {
		return 16 // generic dispatch, single-word operands
	}
	return 18
}

func costCall(baseline bool) int64 {
	if baseline {
		return 18 // argument window setup, callee check, call
	}
	return 26
}

func costElem(baseline bool) int64 {
	if baseline {
		return elemCost
	}
	return elemCost + 6
}

func costGlobal(baseline bool) int64 {
	if baseline {
		return 4 // cached global slot
	}
	return 16
}

// costCell is a closure-cell access at the given scope depth (both tiers).
func costCell(depth int) int64 { return int64(4 + 2*depth) }
