package opt

import (
	"fmt"

	"nomap/internal/ir"
	"nomap/internal/value"
)

// GVN performs global value numbering over pure operations, memory loads,
// and checks, plus constant folding of pure integer/boolean operations.
//
// Loads and heap-reading checks participate only within an unbroken memory
// generation: any write to the same alias class bumps that class, and any
// barrier — an opaque call, a transaction boundary, or an SMP-carrying
// check (paper §III-A3) — bumps every class. Eliminating a dominated
// identical check removes its instructions entirely, which is one of the
// two benefits NoMap unlocks (paper §IV-C).
func GVN(f *ir.Func) {
	dom := ir.BuildDom(f)
	gen := map[memKey]int{}
	allGen := 0
	table := map[string]*ir.Value{}

	keyOf := func(v *ir.Value) (string, bool) {
		pure := v.Op.IsPure() && v.Op != ir.OpPhi && v.Op != ir.OpParam
		load := v.Op.ReadsMemory() && !v.Op.WritesMemory() && !v.Op.IsCall()
		check := v.Op.IsCheck()
		if !pure && !load && !check {
			return "", false
		}
		if check && v.Deopt != nil {
			// An SMP is a barrier and is never deduplicated across itself;
			// conservatively leave SMP-carrying checks alone.
			return "", false
		}
		k := fmt.Sprintf("%d|%d|%q|%g", v.Op, v.AuxInt, v.AuxStr, v.AuxFloat)
		if v.Op == ir.OpConst {
			k += "|" + v.AuxVal.ToStringValue() + "|" + v.AuxVal.Kind().String()
		}
		if v.Shape != nil {
			k += fmt.Sprintf("|s%d", v.Shape.ID)
		}
		if v.Callee != nil {
			k += fmt.Sprintf("|c%p", v.Callee)
		}
		for _, a := range v.Args {
			k += fmt.Sprintf("|v%d", a.ID)
		}
		// Reads incorporate their alias-class generations.
		for _, rk := range readKeys(v) {
			k += fmt.Sprintf("|g%d.%d.%s=%d.%d", rk.kind, rk.off, rk.name, gen[rk], allGen)
		}
		return k, true
	}

	for _, b := range dom.RPO() {
		for i := 0; i < len(b.Values); i++ {
			v := b.Values[i]
			if folded := foldConst(v); folded {
				// Constant-folded in place; fall through to numbering so
				// identical constants merge.
			}
			if v.IsBarrier() {
				allGen++
				continue
			}
			for _, wk := range writeKeys(v) {
				gen[wk]++
			}
			k, ok := keyOf(v)
			if !ok {
				continue
			}
			if prev, hit := table[k]; hit && dom.Dominates(prev.Block, b) && prev != v {
				if v.Op.IsCheck() {
					// A dominating identical check makes this one redundant.
					b.RemoveValue(v)
					i--
					continue
				}
				if v.Type != ir.TypeNone {
					ir.ReplaceUses(f, v, prev)
					b.RemoveValue(v)
					i--
					continue
				}
			}
			table[k] = v
		}
	}
}

// foldConst rewrites v in place into an OpConst when all args are constants
// and the operation folds safely. Returns whether folding happened.
func foldConst(v *ir.Value) bool {
	allConst := len(v.Args) > 0
	for _, a := range v.Args {
		if a.Op != ir.OpConst {
			allConst = false
			break
		}
	}
	if !allConst {
		return false
	}
	setConst := func(val value.Value, t ir.Type) bool {
		v.Op = ir.OpConst
		v.AuxVal = val
		v.Type = t
		v.Args = nil
		v.AuxInt = 0
		v.AuxStr = ""
		return true
	}
	// The folder evaluates through the same int32 kernels and comparison the
	// machine executes these ops with, so a folded constant is the value the
	// op would have computed.
	c := func(i int) value.Value { return v.Args[i].AuxVal }
	x := func(i int) int32 { return v.Args[i].AuxVal.Int32() }
	switch v.Op {
	case ir.OpAddInt, ir.OpSubInt, ir.OpMulInt:
		var r int32
		var fits bool
		switch v.Op {
		case ir.OpAddInt:
			r, fits = value.AddInt32(x(0), x(1))
		case ir.OpSubInt:
			r, fits = value.SubInt32(x(0), x(1))
		default:
			r, fits = value.MulInt32(x(0), x(1))
		}
		if !fits {
			return false // would overflow: keep op + its check
		}
		return setConst(value.Int(r), ir.TypeInt32)
	case ir.OpBitAnd:
		return setConst(value.Int(x(0)&x(1)), ir.TypeInt32)
	case ir.OpBitOr:
		return setConst(value.Int(x(0)|x(1)), ir.TypeInt32)
	case ir.OpBitXor:
		return setConst(value.Int(x(0)^x(1)), ir.TypeInt32)
	case ir.OpShl:
		return setConst(value.Int(value.ShlInt32(x(0), x(1))), ir.TypeInt32)
	case ir.OpShr:
		return setConst(value.Int(value.ShrInt32(x(0), x(1))), ir.TypeInt32)
	case ir.OpCmpInt:
		return setConst(value.Boolean(value.Ordered(value.Cmp(v.AuxInt), x(0), x(1))), ir.TypeBool)
	case ir.OpToBool:
		return setConst(value.Boolean(c(0).ToBoolean()), ir.TypeBool)
	case ir.OpBoolNot:
		return setConst(value.Boolean(!c(0).Bool()), ir.TypeBool)
	case ir.OpIntToDouble:
		return setConst(value.Double(float64(x(0))), ir.TypeDouble)
	}
	return false
}
