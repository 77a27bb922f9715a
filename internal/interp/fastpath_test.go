package interp

import (
	"math"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/value"
)

// The int32 fast paths in Exec skip the unbox → Op.Eval → box round trip, so
// they must compute exactly what it computes: for every binary op and a grid
// of edge operands, whenever intBinFast claims the case its boxed word is the
// one the generic path boxes (which also pins -0, the int32/double split on
// overflow and the uint32 range of >>>), and the int32 comparison the fused
// compare-and-branch ops call directly agrees with the generic comparison.
func TestIntFastPathsMatchGeneric(t *testing.T) {
	arith := []bytecode.Op{
		bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor,
		bytecode.OpShl, bytecode.OpShr, bytecode.OpUShr,
	}
	cmps := []bytecode.Op{
		bytecode.OpLess, bytecode.OpLessEq, bytecode.OpGreater, bytecode.OpGreaterEq,
		bytecode.OpEq, bytecode.OpNeq, bytecode.OpStrictEq, bytecode.OpStrictNeq,
	}
	// 46341² is the first square past MaxInt32; 65536² wraps to 0 in 32 bits.
	grid := []int32{0, 1, -1, 2, -2, 31, -31, 32, -32, 33, 46340, 46341, -46341, 65536,
		math.MaxInt32, math.MaxInt32 - 1, math.MinInt32, math.MinInt32 + 1}
	hd := value.NewHandles()
	claimed := make(map[bytecode.Op]bool)
	for _, op := range append(arith, cmps...) {
		for _, x := range grid {
			for _, y := range grid {
				got, ok := intBinFast(op, x, y, false, nil, 0)
				if !ok {
					continue
				}
				claimed[op] = true
				if want := hd.Box(op.Eval(value.Int(x), value.Int(y))); got != want {
					t.Errorf("%v(%d, %d): fast path %v (%#x), generic path %v (%#x)",
						op, x, y, hd.Unbox(got), uint64(got), hd.Unbox(want), uint64(want))
				}
			}
		}
	}
	for _, op := range append(arith, cmps...) {
		declines := op == bytecode.OpDiv || op == bytecode.OpMod
		if claimed[op] == declines {
			t.Errorf("%v: fast path claimed=%v, want %v", op, claimed[op], !declines)
		}
	}
	for _, op := range cmps {
		for _, x := range grid {
			for _, y := range grid {
				if got, want := value.Ordered(op.Cmp(), x, y), op.Eval(value.Int(x), value.Int(y)).Bool(); got != want {
					t.Errorf("int32 compare %v(%d, %d) = %v, generic path %v", op, x, y, got, want)
				}
			}
		}
	}
}
