package value

import (
	"cmp"
	"fmt"
	"math"
)

// Generic operator semantics. These are the "runtime calls" the Baseline
// tier emits (paper Figure 4(b): loadProperty, loadArrayValue, add, ...):
// they handle every corner case, which is exactly why they are slow and why
// the FTL tier replaces them with checked fast paths.

// Add implements the JavaScript + operator: string concatenation when either
// operand is (or coerces to) a string, numeric addition otherwise, with the
// int32 fast path and overflow promotion to double.
func Add(a, b Value) Value {
	if a.kind == KindString || b.kind == KindString {
		return Str(a.ToStringValue() + b.ToStringValue())
	}
	if a.kind == KindObject || b.kind == KindObject {
		// Simplified ToPrimitive: arrays and plain objects stringify.
		return Str(a.ToStringValue() + b.ToStringValue())
	}
	if a.kind == KindInt32 && b.kind == KindInt32 {
		if s, ok := AddInt32(a.i, b.i); ok {
			return Int(s)
		}
		return Double(float64(a.i) + float64(b.i))
	}
	return Number(a.ToNumber() + b.ToNumber())
}

// Sub implements the JavaScript - operator.
func Sub(a, b Value) Value {
	if a.kind == KindInt32 && b.kind == KindInt32 {
		if d, ok := SubInt32(a.i, b.i); ok {
			return Int(d)
		}
		return Double(float64(a.i) - float64(b.i))
	}
	return Number(a.ToNumber() - b.ToNumber())
}

// Mul implements the JavaScript * operator.
func Mul(a, b Value) Value {
	if a.kind == KindInt32 && b.kind == KindInt32 {
		if p, ok := MulInt32(a.i, b.i); ok {
			return Int(p)
		}
		return Double(float64(a.i) * float64(b.i))
	}
	return Number(a.ToNumber() * b.ToNumber())
}

// Div implements the JavaScript / operator (always double semantics; engines
// only keep an int32 result when it divides exactly, which we mirror through
// Number's canonicalization).
func Div(a, b Value) Value {
	return Number(a.ToNumber() / b.ToNumber())
}

// Mod implements the JavaScript % operator (C-style fmod semantics).
func Mod(a, b Value) Value {
	if a.kind == KindInt32 && b.kind == KindInt32 && b.i != 0 && !(a.i == math.MinInt32 && b.i == -1) {
		r := a.i % b.i
		if r == 0 && a.i < 0 {
			return Double(math.Copysign(0, -1))
		}
		return Int(r)
	}
	return Number(math.Mod(a.ToNumber(), b.ToNumber()))
}

// Neg implements unary minus.
func Neg(a Value) Value {
	if a.kind == KindInt32 {
		if n, ok := NegInt32(a.i); ok {
			return Int(n)
		}
	}
	return Number(-a.ToNumber())
}

// The int32 kernels below are the one definition of integer arithmetic: the
// generic operators above, the bytecode tiers' int32 fast paths, the
// machine's integer IR ops and the optimizer's constant folder all call
// them. The arithmetic kernels return the wrapped 32-bit result and whether
// it is the exact one; fits=false is the overflow flag the paper's
// SMP-guarded overflow checks test.

// AddInt32 adds with overflow detection.
func AddInt32(a, b int32) (r int32, fits bool) {
	s := int64(a) + int64(b)
	return int32(s), s == int64(int32(s))
}

// SubInt32 subtracts with overflow detection.
func SubInt32(a, b int32) (r int32, fits bool) {
	d := int64(a) - int64(b)
	return int32(d), d == int64(int32(d))
}

// MulInt32 multiplies with overflow detection. A zero result with a negative
// operand must be -0, which int32 cannot represent, so it reports overflow —
// the same corner JavaScriptCore deoptimizes on.
func MulInt32(a, b int32) (r int32, fits bool) {
	p := int64(a) * int64(b)
	return int32(p), p == int64(int32(p)) && !(p == 0 && (a < 0 || b < 0))
}

// NegInt32 negates with overflow detection: -0 and -MinInt32 do not fit.
func NegInt32(a int32) (r int32, fits bool) {
	return -a, a != 0 && a != math.MinInt32
}

// ShlInt32 is <<: the count is taken mod 32.
func ShlInt32(a, b int32) int32 { return a << (uint32(b) & 31) }

// ShrInt32 is the sign-propagating >>.
func ShrInt32(a, b int32) int32 { return a >> (uint32(b) & 31) }

// UShrInt32 is the zero-fill >>>; its result is a uint32.
func UShrInt32(a, b int32) uint32 { return uint32(a) >> (uint32(b) & 31) }

// Cmp is a comparison operator. It is the one comparison of the engine: the
// generic relational operators, the bytecode tiers' int32 fast paths, the
// machine's CmpInt/CmpDouble and the constant folder all evaluate through
// Ordered.
type Cmp int64

const (
	CmpLT Cmp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

// String returns the comparison mnemonic.
func (c Cmp) String() string {
	return [...]string{"lt", "le", "gt", "ge", "eq", "ne"}[c]
}

// Ordered reports whether a c b holds. A NaN operand makes every operator
// false except CmpNE, as JavaScript's comparisons require.
func Ordered[T cmp.Ordered](c Cmp, a, b T) bool {
	switch c {
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	}
	return false
}

// Compare evaluates a relational operator: two strings compare by code
// units, anything else by ToNumber.
func Compare(a, b Value, c Cmp) Value {
	if a.kind == KindString && b.kind == KindString {
		return Boolean(Ordered(c, a.s, b.s))
	}
	return Boolean(Ordered(c, a.ToNumber(), b.ToNumber()))
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	an, bn := a.IsNumber(), b.IsNumber()
	if an && bn {
		return a.Float() == b.Float()
	}
	if a.kind != b.kind {
		// Hole never reaches user code; undefined===undefined handled above.
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.b == b.b
	case KindString:
		return a.s == b.s
	case KindObject:
		return a.o == b.o
	}
	return false
}

// LooseEquals implements == with the coercions our subset exercises.
func LooseEquals(a, b Value) bool {
	if a.kind == b.kind || (a.IsNumber() && b.IsNumber()) {
		return StrictEquals(a, b)
	}
	if (a.kind == KindNull && b.kind == KindUndefined) || (a.kind == KindUndefined && b.kind == KindNull) {
		return true
	}
	if a.IsNumber() && b.kind == KindString {
		return a.Float() == stringToNumber(b.s)
	}
	if a.kind == KindString && b.IsNumber() {
		return stringToNumber(a.s) == b.Float()
	}
	if a.kind == KindBool {
		return LooseEquals(Number(a.ToNumber()), b)
	}
	if b.kind == KindBool {
		return LooseEquals(a, Number(b.ToNumber()))
	}
	if a.kind == KindObject && (b.IsNumber() || b.kind == KindString) {
		return LooseEquals(Str(a.ToStringValue()), b)
	}
	if b.kind == KindObject && (a.IsNumber() || a.kind == KindString) {
		return LooseEquals(a, Str(b.ToStringValue()))
	}
	return false
}

// BitAnd implements &.
func BitAnd(a, b Value) Value { return Int(a.ToInt32() & b.ToInt32()) }

// BitOr implements |.
func BitOr(a, b Value) Value { return Int(a.ToInt32() | b.ToInt32()) }

// BitXor implements ^.
func BitXor(a, b Value) Value { return Int(a.ToInt32() ^ b.ToInt32()) }

// BitNot implements unary ~.
func BitNot(a Value) Value { return Int(^a.ToInt32()) }

// Shl implements <<.
func Shl(a, b Value) Value { return Int(ShlInt32(a.ToInt32(), b.ToInt32())) }

// Shr implements the sign-propagating >>.
func Shr(a, b Value) Value { return Int(ShrInt32(a.ToInt32(), b.ToInt32())) }

// UShr implements the zero-fill >>>. The result is a uint32 and may need the
// double representation — one of the classic JS overflow corners.
func UShr(a, b Value) Value { return Number(float64(UShrInt32(a.ToInt32(), b.ToInt32()))) }

// ToNumeric implements the unary + (ToNumber) operator.
func ToNumeric(a Value) Value {
	if a.IsNumber() {
		return a
	}
	return Number(a.ToNumber())
}

// Callee returns the function a call (what = "function") or a construction
// (what = "constructor") invokes, or the error raised when callee is not
// callable.
func Callee(callee Value, what string) (*Function, error) {
	if !callee.IsCallable() {
		return nil, fmt.Errorf("%s is not a %s", callee.TypeOf(), what)
	}
	return callee.o.Fn, nil
}

// The generic property and element operations below are the loadProperty /
// loadArrayValue family of runtime calls: the bytecode tiers' slow paths and
// the machine's runtime entries both run them, and their errors are the
// JavaScript TypeErrors the executing tier attributes to its source line.

// GetProp implements obj.name: an object's own (or array length) property, a
// string's length, undefined on other primitives, and an error on undefined
// and null.
func GetProp(obj Value, name string) (Value, error) {
	switch obj.kind {
	case KindObject:
		return obj.o.Get(name), nil
	case KindString:
		if name == "length" {
			return Int(int32(len(obj.s))), nil
		}
	case KindUndefined, KindNull:
		return Undefined(), fmt.Errorf("cannot read property %q of %s", name, obj.TypeOf())
	}
	return Undefined(), nil
}

// SetProp implements obj.name = v; a primitive receiver is an error.
func SetProp(obj Value, name string, v Value) error {
	if obj.kind != KindObject {
		return fmt.Errorf("cannot set property %q of %s", name, obj.TypeOf())
	}
	obj.o.Set(name, v)
	return nil
}

// ElemPath says how an element access resolved.
type ElemPath uint8

const (
	// ElemIndex is an integral number index into an array's element store.
	ElemIndex ElemPath = iota
	// ElemProperty is any other index on an object: a named-property access.
	ElemProperty
	// ElemString is a character read from a string.
	ElemString
)

// ElemAccess is what an element access observed, in the shape the tiers'
// element feedback records it.
type ElemAccess struct {
	Path ElemPath
	// InBounds: the index was within the populated element store.
	InBounds bool
	// Append: a store at exactly the element count (elongation, not a miss).
	Append bool
	// Hole: an in-bounds read found a hole.
	Hole bool
}

// elemIndex returns idx as an element index when it is an integral number.
func elemIndex(idx Value) (int, bool) {
	switch idx.kind {
	case KindInt32:
		return int(idx.i), true
	case KindDouble:
		i := int(idx.f)
		return i, float64(i) == idx.f
	}
	return 0, false
}

// GetElem implements obj[idx]: array elements (holes and out-of-bounds read
// undefined), a string's characters, named properties of other objects, and
// an error on primitives that are not strings.
func GetElem(obj, idx Value) (Value, ElemAccess, error) {
	o := obj.Object()
	if o == nil {
		if obj.kind != KindString {
			return Undefined(), ElemAccess{}, fmt.Errorf("cannot index %s", obj.TypeOf())
		}
		if i, ok := elemIndex(idx); ok && i >= 0 && i < len(obj.s) {
			return Str(obj.s[i : i+1]), ElemAccess{Path: ElemString}, nil
		}
		return Undefined(), ElemAccess{Path: ElemString}, nil
	}
	if i, ok := elemIndex(idx); ok && o.IsArray {
		if !o.InBounds(i) {
			return Undefined(), ElemAccess{Path: ElemIndex}, nil
		}
		if e := o.Elements[i]; !e.IsHole() {
			return e, ElemAccess{Path: ElemIndex, InBounds: true}, nil
		}
		return Undefined(), ElemAccess{Path: ElemIndex, InBounds: true, Hole: true}, nil
	}
	return o.Get(idx.ToStringValue()), ElemAccess{Path: ElemProperty}, nil
}

// SetElem implements obj[idx] = v: a non-negative integral index stores (and
// elongates) an array element, anything else sets a named property, and a
// primitive receiver is an error.
func SetElem(obj, idx, v Value) (ElemAccess, error) {
	o := obj.Object()
	if o == nil {
		return ElemAccess{}, fmt.Errorf("cannot index-assign %s", obj.TypeOf())
	}
	if i, ok := elemIndex(idx); ok && o.IsArray && i >= 0 {
		acc := ElemAccess{Path: ElemIndex, InBounds: o.InBounds(i)}
		acc.Append = !acc.InBounds && i == o.ElementCount()
		o.SetElement(i, v)
		return acc, nil
	}
	o.Set(idx.ToStringValue(), v)
	return ElemAccess{Path: ElemProperty}, nil
}
