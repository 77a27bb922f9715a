package nomap

// NaN-box round-trip fuzzing: every value.Kind must survive Box → Unbox with
// its kind and payload intact. Doubles are the delicate case — the box IS the
// double's bit pattern, so the fuzzer drives raw bits at the boxer looking
// for patterns that collide with the tag space. The invariants:
//
//   - Non-NaN doubles round-trip bit-exactly (including -0.0, subnormals,
//     and the infinities).
//   - Every NaN input unboxes as a NaN double: the payload is canonicalized
//     (a hardware-produced NaN could otherwise alias a tag), but NaN-ness is
//     never lost and never becomes a different kind.
//   - Int32s round-trip under their own tag for every value, including the
//     boundaries — kind observability at tier edges (int vs double) is part
//     of the contract.
//   - The singletons (undefined, null, the hole marker) and booleans map to
//     their fixed encodings and back.
//   - Strings and objects round-trip through the per-isolate handle slab to
//     the same referent.

import (
	"math"
	"testing"

	"nomap/internal/value"
)

func FuzzBox(f *testing.F) {
	// Boundary doubles: zeros, subnormals, infinities, NaN payload shapes
	// (quiet, signaling-style, sign-flipped, payload bits that mimic tags).
	seeds := []uint64{
		0x0000000000000000, // +0.0
		0x8000000000000000, // -0.0
		0x0000000000000001, // smallest subnormal
		0x7FEFFFFFFFFFFFFF, // largest finite
		0x7FF0000000000000, // +Inf
		0xFFF0000000000000, // -Inf
		0x7FF8000000000000, // canonical quiet NaN
		0x7FF0000000000001, // signaling-style NaN
		0xFFF8000000000000, // negative quiet NaN
		0xFFF9000000000007, // NaN whose payload collides with the int32 tag
		0xFFFF00000000002A, // NaN whose payload collides with the object tag
		0x3FF0000000000000, // 1.0
		0xC000000000000000, // -2.0
	}
	for _, bits := range seeds {
		f.Add(bits, int32(0))
	}
	// Int32 boundaries ride along on the second parameter.
	for _, i := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 42, -42} {
		f.Add(uint64(0), i)
	}

	f.Fuzz(func(t *testing.T, bits uint64, i int32) {
		h := value.NewHandles()

		// Double round trip from raw bits.
		d := math.Float64frombits(bits)
		b := value.BoxDouble(d)
		got := h.Unbox(b)
		if got.Kind() != value.KindDouble {
			t.Fatalf("BoxDouble(%#x): unboxed kind %v, want double", bits, got.Kind())
		}
		gf := got.Float()
		if math.IsNaN(d) {
			if !math.IsNaN(gf) {
				t.Fatalf("BoxDouble(NaN %#x) round-tripped to %v", bits, gf)
			}
		} else if math.Float64bits(gf) != bits {
			t.Fatalf("BoxDouble(%#x) round-tripped to %#x", bits, math.Float64bits(gf))
		}
		// Sign of zero survives.
		if d == 0 && !math.IsNaN(d) && math.Signbit(d) != math.Signbit(gf) {
			t.Fatalf("zero sign lost: in %v out %v", d, gf)
		}

		// Int32 round trip, with kind observability.
		bi := value.BoxInt(i)
		if !bi.IsInt32() || bi.Int32() != i {
			t.Fatalf("BoxInt(%d): IsInt32=%v Int32=%d", i, bi.IsInt32(), bi.Int32())
		}
		gi := h.Unbox(bi)
		if gi.Kind() != value.KindInt32 || gi.Int32() != i {
			t.Fatalf("BoxInt(%d) unboxed as %v", i, gi)
		}

		// Full Value round trip across every kind.
		vals := []value.Value{
			value.Undefined(),
			value.Null(),
			value.Hole(),
			value.Boolean(true),
			value.Boolean(false),
			value.Int(i),
			value.Double(d),
			value.Number(d),
			value.Str("s"),
		}
		for _, v := range vals {
			rt := h.Unbox(h.Box(v))
			if rt.Kind() != v.Kind() {
				t.Fatalf("kind changed: %v -> %v", v.Kind(), rt.Kind())
			}
			switch v.Kind() {
			case value.KindBool:
				if rt.Bool() != v.Bool() {
					t.Fatalf("bool payload changed: %v -> %v", v, rt)
				}
			case value.KindInt32:
				if rt.Int32() != v.Int32() {
					t.Fatalf("int payload changed: %v -> %v", v, rt)
				}
			case value.KindDouble:
				vb, rb := math.Float64bits(v.Float()), math.Float64bits(rt.Float())
				if vb != rb && !(math.IsNaN(v.Float()) && math.IsNaN(rt.Float())) {
					t.Fatalf("double payload changed: %#x -> %#x", vb, rb)
				}
			case value.KindString:
				if rt.StringVal() != v.StringVal() {
					t.Fatalf("string payload changed: %q -> %q", v.StringVal(), rt.StringVal())
				}
			}
		}

		// Objects round-trip to the same referent through the handle slab.
		shapes := value.NewShapeTable()
		o := value.NewObject(shapes, 0)
		bo := h.Box(value.Obj(o))
		if !bo.IsObject() {
			t.Fatal("object box lost its tag")
		}
		if h.ObjectOrNil(bo) != o {
			t.Fatal("object handle resolved to a different referent")
		}
		if back := h.Unbox(bo); back.Kind() != value.KindObject || back.Object() != o {
			t.Fatalf("object round trip changed referent")
		}

		// The hole marker stays engine-internal and distinct from undefined.
		if value.BoxedHole == value.BoxedUndefined {
			t.Fatal("hole and undefined share an encoding")
		}
		if !value.BoxedHole.IsHole() || value.BoxedUndefined.IsHole() {
			t.Fatal("IsHole misclassifies the singletons")
		}
	})
}
