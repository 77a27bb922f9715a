package opt

import (
	"encoding/binary"
	"math"

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
//
// A value that duplicates a dominating one is removed and forwarded to it;
// later values read their arguments through f's forwarding table, and one
// walk at the end rewrites every remaining use.
func GVN(f *ir.Func) {
	numberable := 0
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if numbered(v) {
				numberable++
			}
		}
	}
	// The table is sized once for every value that can enter it, so
	// numbering a wider function allocates no more often.
	g := &gvn{
		dom:   f.Dom(),
		gen:   map[memKey]int32{},
		table: make(map[gvnKey]*ir.Value, numberable),
	}
	for _, b := range g.dom.RPO() {
		for i := 0; i < len(b.Values); i++ {
			v := b.Values[i]
			f.ResolveArgs(v)
			// Constant-folded in place; numbering follows, so identical
			// constants merge.
			foldConst(v)
			if v.IsBarrier() {
				g.allGen++
				continue
			}
			for _, wk := range writeKeys(v) {
				g.gen[wk]++
			}
			k, ok := g.key(v)
			if onKeyHook != nil {
				onKeyHook(g, v, k, ok)
			}
			if !ok {
				continue
			}
			if prev, hit := g.table[k]; hit && g.dom.Dominates(prev.Block, b) && prev != v {
				if v.Op.IsCheck() {
					// A dominating identical check makes this one redundant.
					b.RemoveValue(v)
					i--
					continue
				}
				if v.Type != ir.TypeNone {
					f.Forward(v, prev)
					b.RemoveValue(v)
					i--
					continue
				}
			}
			g.table[k] = v
		}
	}
	f.ApplyForwarding()
}

// gvn is one GVN run's state.
type gvn struct {
	dom    *ir.DomTree
	gen    map[memKey]int32
	allGen int32
	table  map[gvnKey]*ir.Value
	rest   []byte // reused buffer for argument IDs past the inline ones
}

// gvnKey is a value's identity for numbering: equal keys mean equal
// results. It partitions values exactly as rendering the same fields to a
// string would: AuxFloat and a double constant compare by bits, with every
// NaN one value and -0 apart from +0, and a constant's kind keeps the
// string "1" apart from the number 1.
type gvnKey struct {
	op    ir.Op
	kind  value.Kind // OpConst payload kind
	nargs uint16
	shape uint32 // Shape.ID+1, or 0 without a shape
	// gen and allGen are a read's alias-class and barrier generations.
	gen, allGen int32
	auxInt      int64
	auxFloat    uint64
	auxStr      string
	callee      *value.Function
	// num is an OpConst's bool, int32 or double bits.
	num  uint64
	args [4]int32
	// str is an OpConst's string or object string value, and otherwise
	// the argument IDs past len(args) as little-endian uint32s.
	str string
}

// numbered reports whether GVN numbers v: a pure value other than a phi or
// parameter, a load, or a check without an SMP. An SMP is a barrier and is
// never deduplicated across itself, so SMP-carrying checks are left alone.
func numbered(v *ir.Value) bool {
	if v.Op.IsCheck() {
		return v.Deopt == nil
	}
	pure := v.Op.IsPure() && v.Op != ir.OpPhi && v.Op != ir.OpParam
	load := v.Op.ReadsMemory() && !v.Op.WritesMemory() && !v.Op.IsCall()
	return pure || load
}

// key returns v's numbering key, or false for a value GVN leaves alone.
func (g *gvn) key(v *ir.Value) (gvnKey, bool) {
	if !numbered(v) {
		return gvnKey{}, false
	}
	k := gvnKey{
		op:       v.Op,
		nargs:    uint16(len(v.Args)),
		auxInt:   v.AuxInt,
		auxFloat: floatBits(v.AuxFloat),
		auxStr:   v.AuxStr,
		callee:   v.Callee,
	}
	if v.Op == ir.OpConst {
		k.kind = v.AuxVal.Kind()
		switch k.kind {
		case value.KindBool:
			if v.AuxVal.Bool() {
				k.num = 1
			}
		case value.KindInt32:
			k.num = uint64(v.AuxVal.Int32())
		case value.KindDouble:
			k.num = floatBits(v.AuxVal.Float())
		case value.KindString, value.KindObject:
			k.str = v.AuxVal.ToStringValue()
		}
	}
	if v.Shape != nil {
		k.shape = v.Shape.ID + 1
	}
	for i, a := range v.Args {
		if i < len(k.args) {
			k.args[i] = int32(a.ID)
		} else {
			g.rest = binary.LittleEndian.AppendUint32(g.rest, uint32(a.ID))
		}
	}
	if len(g.rest) > 0 {
		k.str = string(g.rest)
		g.rest = g.rest[:0]
	}
	// A read carries its alias class's generation; the class itself follows
	// from the op and aux fields already in the key.
	for _, rk := range readKeys(v) {
		k.gen, k.allGen = g.gen[rk], g.allGen
	}
	return k, true
}

// floatBits returns f's bits with every NaN mapped to one pattern.
func floatBits(f float64) uint64 {
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// onKeyHook is set only by tests (export_test.go): it observes every key
// GVN computes.
var onKeyHook func(g *gvn, v *ir.Value, k gvnKey, ok bool)

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
