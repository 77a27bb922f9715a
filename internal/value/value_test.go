package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNumberCanonicalization(t *testing.T) {
	cases := []struct {
		in   float64
		kind Kind
	}{
		{0, KindInt32},
		{1, KindInt32},
		{-1, KindInt32},
		{math.MaxInt32, KindInt32},
		{math.MinInt32, KindInt32},
		{math.MaxInt32 + 1, KindDouble},
		{math.MinInt32 - 1, KindDouble},
		{0.5, KindDouble},
		{math.NaN(), KindDouble},
		{math.Inf(1), KindDouble},
		{math.Copysign(0, -1), KindDouble}, // -0 must stay double
	}
	for _, c := range cases {
		if got := Number(c.in).Kind(); got != c.kind {
			t.Errorf("Number(%v).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestToBoolean(t *testing.T) {
	table := NewShapeTable()
	cases := []struct {
		v    Value
		want bool
	}{
		{Undefined(), false},
		{Null(), false},
		{Boolean(false), false},
		{Boolean(true), true},
		{Int(0), false},
		{Int(7), true},
		{Double(0), false},
		{Double(math.NaN()), false},
		{Double(0.25), true},
		{Str(""), false},
		{Str("x"), true},
		{Obj(NewObject(table, 0)), true},
	}
	for _, c := range cases {
		if got := c.v.ToBoolean(); got != c.want {
			t.Errorf("ToBoolean(%v %v) = %v, want %v", c.v.Kind(), c.v, got, c.want)
		}
	}
}

func TestToNumberCoercions(t *testing.T) {
	if !math.IsNaN(Undefined().ToNumber()) {
		t.Error("undefined should coerce to NaN")
	}
	if Null().ToNumber() != 0 {
		t.Error("null should coerce to 0")
	}
	if Boolean(true).ToNumber() != 1 || Boolean(false).ToNumber() != 0 {
		t.Error("bool coercion wrong")
	}
	if Str("42").ToNumber() != 42 {
		t.Error(`"42" should coerce to 42`)
	}
	if Str("  3.5 ").ToNumber() != 3.5 {
		t.Error("whitespace-trimmed parse failed")
	}
	if Str("").ToNumber() != 0 {
		t.Error("empty string should coerce to 0")
	}
	if Str("0x10").ToNumber() != 16 {
		t.Error("hex string should coerce to 16")
	}
	if !math.IsNaN(Str("bogus").ToNumber()) {
		t.Error("non-numeric string should coerce to NaN")
	}
}

func TestDoubleToInt32(t *testing.T) {
	cases := []struct {
		in   float64
		want int32
	}{
		{0, 0},
		{1.9, 1},
		{-1.9, -1},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{4294967296, 0},           // 2^32 wraps to 0
		{4294967297, 1},           // 2^32+1 wraps to 1
		{2147483648, -2147483648}, // 2^31 wraps negative
		{-2147483649, 2147483647},
	}
	for _, c := range cases {
		if got := DoubleToInt32(c.in); got != c.want {
			t.Errorf("DoubleToInt32(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNumberToString(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{-17, "-17"},
		{0.5, "0.5"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
	}
	for _, c := range cases {
		if got := NumberToString(c.in); got != c.want {
			t.Errorf("NumberToString(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAddSemantics(t *testing.T) {
	if got := Add(Int(2), Int(3)); !StrictEquals(got, Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(Str("a"), Int(1)); got.ToStringValue() != "a1" {
		t.Errorf(`"a"+1 = %q`, got)
	}
	if got := Add(Int(1), Str("a")); got.ToStringValue() != "1a" {
		t.Errorf(`1+"a" = %q`, got)
	}
	// Overflow promotes to double, not wraparound.
	got := Add(Int(math.MaxInt32), Int(1))
	if got.Kind() != KindDouble || got.Float() != float64(math.MaxInt32)+1 {
		t.Errorf("MaxInt32+1 = %v (%v)", got, got.Kind())
	}
}

func TestMulNegativeZero(t *testing.T) {
	got := Mul(Int(-1), Int(0))
	if got.Kind() != KindDouble || !math.Signbit(got.Float()) || got.Float() != 0 {
		t.Errorf("-1*0 should be -0 double, got %v kind=%v", got, got.Kind())
	}
}

func TestDivAndMod(t *testing.T) {
	if got := Div(Int(6), Int(3)); !StrictEquals(got, Int(2)) {
		t.Errorf("6/3 = %v", got)
	}
	if got := Div(Int(1), Int(2)); got.Float() != 0.5 {
		t.Errorf("1/2 = %v", got)
	}
	if got := Div(Int(1), Int(0)); !math.IsInf(got.Float(), 1) {
		t.Errorf("1/0 = %v", got)
	}
	if got := Mod(Int(7), Int(3)); !StrictEquals(got, Int(1)) {
		t.Errorf("7%%3 = %v", got)
	}
	if got := Mod(Int(-7), Int(3)); !StrictEquals(got, Int(-1)) {
		t.Errorf("-7%%3 = %v", got)
	}
	if got := Mod(Double(5.5), Int(2)); got.Float() != 1.5 {
		t.Errorf("5.5%%2 = %v", got)
	}
}

func TestStrictAndLooseEquals(t *testing.T) {
	if !StrictEquals(Int(1), Double(1)) {
		t.Error("1 === 1.0 must hold across representations")
	}
	if StrictEquals(Double(math.NaN()), Double(math.NaN())) {
		t.Error("NaN === NaN must be false")
	}
	if StrictEquals(Int(0), Str("0")) {
		t.Error(`0 === "0" must be false`)
	}
	if !LooseEquals(Int(0), Str("0")) {
		t.Error(`0 == "0" must be true`)
	}
	if !LooseEquals(Null(), Undefined()) {
		t.Error("null == undefined must be true")
	}
	if LooseEquals(Null(), Int(0)) {
		t.Error("null == 0 must be false")
	}
	if !LooseEquals(Boolean(true), Int(1)) {
		t.Error("true == 1 must be true")
	}
}

func TestBitwiseOps(t *testing.T) {
	if got := BitAnd(Int(6), Int(3)); !StrictEquals(got, Int(2)) {
		t.Errorf("6&3 = %v", got)
	}
	if got := Shl(Int(1), Int(31)); !StrictEquals(got, Int(math.MinInt32)) {
		t.Errorf("1<<31 = %v", got)
	}
	if got := UShr(Int(-1), Int(0)); got.Float() != 4294967295 {
		t.Errorf("-1>>>0 = %v", got)
	}
	if got := Shr(Int(-8), Int(1)); !StrictEquals(got, Int(-4)) {
		t.Errorf("-8>>1 = %v", got)
	}
	// Shift counts are masked to 5 bits.
	if got := Shl(Int(1), Int(33)); !StrictEquals(got, Int(2)) {
		t.Errorf("1<<33 = %v", got)
	}
}

func TestTypeOf(t *testing.T) {
	table := NewShapeTable()
	fn := NewFunctionObject(table, &Function{Name: "f"})
	cases := []struct {
		v    Value
		want string
	}{
		{Undefined(), "undefined"},
		{Null(), "object"},
		{Boolean(true), "boolean"},
		{Int(1), "number"},
		{Double(1.5), "number"},
		{Str("s"), "string"},
		{Obj(NewObject(table, 0)), "object"},
		{Obj(fn), "function"},
	}
	for _, c := range cases {
		if got := c.v.TypeOf(); got != c.want {
			t.Errorf("TypeOf(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// Property: int32 fast-path arithmetic agrees with float64 arithmetic
// whenever it claims success.
func TestQuickInt32FastPathAgreesWithDouble(t *testing.T) {
	f := func(a, b int32) bool {
		if s, ok := AddInt32(a, b); ok && float64(s) != float64(a)+float64(b) {
			return false
		}
		if d, ok := SubInt32(a, b); ok && float64(d) != float64(a)-float64(b) {
			return false
		}
		if p, ok := MulInt32(a, b); ok && float64(p) != float64(a)*float64(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: generic Add on int32 inputs always equals double addition.
func TestQuickGenericAddMatchesDouble(t *testing.T) {
	f := func(a, b int32) bool {
		got := Add(Int(a), Int(b))
		return got.ToNumber() == float64(a)+float64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ToInt32 of a canonicalized Number round-trips for in-range ints.
func TestQuickNumberRoundTrip(t *testing.T) {
	f := func(a int32) bool {
		v := Number(float64(a))
		return v.IsInt32() && v.Int32() == a && v.ToInt32() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: StrictEquals is reflexive for non-NaN values.
func TestQuickStrictEqualsReflexive(t *testing.T) {
	f := func(a int32, s string) bool {
		return StrictEquals(Int(a), Int(a)) && StrictEquals(Str(s), Str(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LooseEquals and StrictEquals are symmetric.
func TestQuickEqualitySymmetry(t *testing.T) {
	mk := func(tag uint8, i int32, s string) Value {
		switch tag % 6 {
		case 0:
			return Int(i)
		case 1:
			return Double(float64(i) / 2)
		case 2:
			return Str(s)
		case 3:
			return Boolean(i&1 == 0)
		case 4:
			return Null()
		default:
			return Undefined()
		}
	}
	f := func(ta, tb uint8, ia, ib int32, sa, sb string) bool {
		a, b := mk(ta, ia, sa), mk(tb, ib, sb)
		return LooseEquals(a, b) == LooseEquals(b, a) &&
			StrictEquals(a, b) == StrictEquals(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: exactly one of a<b, a>b, a==b holds for non-NaN numbers.
func TestQuickCompareTrichotomy(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(a), Int(b)
		lt := Compare(x, y, CmpLT).Bool()
		gt := Compare(x, y, CmpGT).Bool()
		eq := StrictEquals(x, y)
		n := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is consistent with <= being the negation of >.
func TestQuickCompareDuality(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(a), Int(b)
		return Compare(x, y, CmpLE).Bool() == !Compare(x, y, CmpGT).Bool() &&
			Compare(x, y, CmpGE).Bool() == !Compare(x, y, CmpLT).Bool()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: bitwise ops agree with ECMAScript ToInt32 arithmetic on doubles.
func TestQuickBitopsViaToInt32(t *testing.T) {
	f := func(a float64, b int32) bool {
		got := BitAnd(Double(a), Int(b))
		want := DoubleToInt32(a) & b
		return got.IsInt32() && got.Int32() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
