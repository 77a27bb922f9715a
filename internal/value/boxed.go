package value

import "math"

// Boxed is the NaN-boxed one-word value representation used by the hot
// storage layers: interpreter/Baseline register files, frame.Frame locals
// (the canonical deopt/OSR state), and machine LIR operand slots. The fat
// Value struct remains the boundary and debug representation; Box/Unbox
// convert losslessly at tier edges.
//
// Encoding: any bit pattern below tagBase is an IEEE-754 double (doubles are
// stored as their raw bits). Incoming NaNs are canonicalized to the quiet
// NaN 0x7FF8000000000000 so user-computed doubles can never forge a tag.
// Everything at or above tagBase carries a 16-bit tag in the high bits and a
// payload in the low 48 (int32/bool use the payload directly; strings and
// objects hold per-isolate handle-slab indices so GC liveness is preserved
// without unsafe pointer punning).
//
// The zero Boxed is +0.0, not undefined — register files must be filled
// with BoxedUndefined explicitly.
type Boxed uint64

const (
	tagShift = 48

	tagInt32     uint64 = 0xFFF9 << tagShift
	tagBool      uint64 = 0xFFFA << tagShift
	tagNull      uint64 = 0xFFFB << tagShift
	tagUndefined uint64 = 0xFFFC << tagShift
	tagHole      uint64 = 0xFFFD << tagShift
	tagString    uint64 = 0xFFFE << tagShift
	tagObject    uint64 = 0xFFFF << tagShift

	// tagBase is the first non-double bit pattern. Every canonicalized
	// double — including ±Inf (0x7FF0/0xFFF0...) and the canonical NaN —
	// compares below it.
	tagBase uint64 = tagInt32
	tagMask uint64 = 0xFFFF << tagShift

	// canonicalNaN is the quiet NaN all NaN payloads collapse to under
	// BoxDouble; it sits below tagBase so it round-trips as a double.
	canonicalNaN uint64 = 0x7FF8000000000000
)

// Singleton boxed values.
const (
	BoxedUndefined = Boxed(tagUndefined)
	BoxedNull      = Boxed(tagNull)
	BoxedHole      = Boxed(tagHole)
	BoxedTrue      = Boxed(tagBool | 1)
	BoxedFalse     = Boxed(tagBool)
)

// BoxInt boxes an int32.
func BoxInt(i int32) Boxed { return Boxed(tagInt32 | uint64(uint32(i))) }

// BoxBool boxes a boolean.
func BoxBool(b bool) Boxed {
	if b {
		return BoxedTrue
	}
	return BoxedFalse
}

// BoxDouble boxes a double as its raw bits, canonicalizing every NaN (any
// payload, either sign) so no double can alias a tag.
func BoxDouble(f float64) Boxed {
	bits := math.Float64bits(f)
	if bits&0x7FF0000000000000 == 0x7FF0000000000000 && bits&0x000FFFFFFFFFFFFF != 0 {
		bits = canonicalNaN
	}
	return Boxed(bits)
}

// BoxNumber boxes a numeric result with the same int32 canonicalization as
// Number: integral, in range, and not negative zero stays int32.
func BoxNumber(f float64) Boxed {
	if f == math.Trunc(f) && f >= math.MinInt32 && f <= math.MaxInt32 && !math.IsInf(f, 0) {
		if f == 0 && math.Signbit(f) {
			return BoxDouble(f)
		}
		return BoxInt(int32(f))
	}
	return BoxDouble(f)
}

// IsDouble reports whether b holds a double.
func (b Boxed) IsDouble() bool { return uint64(b) < tagBase }

// IsInt32 reports whether b holds an int32.
func (b Boxed) IsInt32() bool { return uint64(b)&tagMask == tagInt32 }

// IsNumber reports whether b holds an int32 or a double.
func (b Boxed) IsNumber() bool { return uint64(b) < tagBase || uint64(b)&tagMask == tagInt32 }

// IsBool reports whether b holds a boolean.
func (b Boxed) IsBool() bool { return uint64(b)&tagMask == tagBool }

// IsString reports whether b holds a string handle.
func (b Boxed) IsString() bool { return uint64(b)&tagMask == tagString }

// IsObject reports whether b holds an object handle.
func (b Boxed) IsObject() bool { return uint64(b)&tagMask == tagObject }

// IsUndefined reports whether b is undefined.
func (b Boxed) IsUndefined() bool { return b == BoxedUndefined }

// IsHole reports whether b is the engine-internal absent-element marker.
func (b Boxed) IsHole() bool { return b == BoxedHole }

// Int32 returns the int32 payload (valid only when IsInt32).
func (b Boxed) Int32() int32 { return int32(uint32(b)) }

// Double returns the double bits (valid only when IsDouble).
func (b Boxed) Double() float64 { return math.Float64frombits(uint64(b)) }

// Bool returns the boolean payload (valid only when IsBool).
func (b Boxed) Bool() bool { return uint64(b)&1 != 0 }

// NumberValue returns the numeric payload of an int32 or double box.
func (b Boxed) NumberValue() float64 {
	if b.IsInt32() {
		return float64(b.Int32())
	}
	return b.Double()
}

// handle returns the slab index of a string or object box.
func (b Boxed) handle() uint32 { return uint32(b) }

// Handles is a per-isolate slab giving strings and objects stable 32-bit
// indices so they fit a NaN-box payload. The slab keeps every boxed referent
// reachable (GC liveness without unsafe pointer punning); Reset drops the
// slab with the rest of the isolate's heap. An object keeps its handle
// itself: the slab claims every object it boxes whose recorded slab is not
// its own, which after a Reset includes every object it boxed before. The
// zero Handles is ready to use.
type Handles struct {
	owner  Owner
	objs   []*Object
	strs   []string
	strIdx map[string]uint32
}

// NewHandles creates an empty handle slab.
func NewHandles() *Handles { return &Handles{} }

// Reset drops every handle (valid only when no boxed values are live).
func (h *Handles) Reset() { *h = Handles{} }

func (h *Handles) objHandle(o *Object) uint32 {
	if h.owner == 0 {
		h.owner = NewOwner()
	}
	if o.slab != h.owner {
		o.slab, o.handle = h.owner, h.push(o)
	}
	return o.handle
}

func (h *Handles) push(o *Object) uint32 {
	h.objs = append(h.objs, o)
	return uint32(len(h.objs) - 1)
}

func (h *Handles) strHandle(s string) uint32 {
	if i, ok := h.strIdx[s]; ok {
		return i
	}
	if h.strIdx == nil {
		h.strIdx = make(map[string]uint32)
	}
	i := uint32(len(h.strs))
	h.strs = append(h.strs, s)
	h.strIdx[s] = i
	return i
}

// BoxObject boxes an object through the slab.
func (h *Handles) BoxObject(o *Object) Boxed {
	return Boxed(tagObject | uint64(h.objHandle(o)))
}

// BoxStr boxes a string through the slab.
func (h *Handles) BoxStr(s string) Boxed {
	return Boxed(tagString | uint64(h.strHandle(s)))
}

// Object returns the object behind an object box.
func (h *Handles) Object(b Boxed) *Object { return h.objs[b.handle()] }

// ObjectOrNil returns the object behind b, or nil when b is not an object
// box — the speculative tiers' "is this the expected receiver" reads.
func (h *Handles) ObjectOrNil(b Boxed) *Object {
	if !b.IsObject() {
		return nil
	}
	return h.objs[b.handle()]
}

// Str returns the string behind a string box.
func (h *Handles) Str(b Boxed) string { return h.strs[b.handle()] }

// Box converts a fat Value to its boxed form. Lossless for every kind except
// that NaN payloads canonicalize (Unbox(Box(v)) observes identical JS
// semantics; see FuzzBox).
func (h *Handles) Box(v Value) Boxed {
	switch v.kind {
	case KindString:
		return h.BoxStr(v.s)
	case KindObject:
		return h.BoxObject(v.o)
	}
	b, _ := BoxPrimitive(v)
	return b
}

// BoxPrimitive boxes v without a handle slab; ok is false for strings and
// objects, whose boxes index one isolate's slab.
func BoxPrimitive(v Value) (b Boxed, ok bool) {
	switch v.kind {
	case KindString, KindObject:
		return BoxedUndefined, false
	case KindUndefined:
		return BoxedUndefined, true
	case KindNull:
		return BoxedNull, true
	case KindBool:
		return BoxBool(v.b), true
	case KindInt32:
		return BoxInt(v.i), true
	case KindDouble:
		return BoxDouble(v.f), true
	case KindHole:
		return BoxedHole, true
	}
	return BoxedUndefined, true
}

// Unbox converts a boxed value back to the fat representation. A raw double
// box unboxes as KindDouble even when integral — kind observability at tier
// edges is preserved by boxing int32s under their own tag.
func (h *Handles) Unbox(b Boxed) Value {
	if uint64(b) < tagBase {
		return Double(math.Float64frombits(uint64(b)))
	}
	switch uint64(b) & tagMask {
	case tagInt32:
		return Int(b.Int32())
	case tagBool:
		return Boolean(b.Bool())
	case tagNull:
		return Null()
	case tagUndefined:
		return Undefined()
	case tagHole:
		return Hole()
	case tagString:
		return Str(h.strs[b.handle()])
	case tagObject:
		return Obj(h.objs[b.handle()])
	}
	return Undefined()
}

// ToBoolean applies the JS truthiness rules directly to a boxed value.
func (h *Handles) ToBoolean(b Boxed) bool {
	if uint64(b) < tagBase {
		f := b.Double()
		return f != 0 && !math.IsNaN(f)
	}
	switch uint64(b) & tagMask {
	case tagInt32:
		return b.Int32() != 0
	case tagBool:
		return b.Bool()
	case tagString:
		return len(h.strs[b.handle()]) != 0
	case tagObject:
		return true
	}
	return false // null, undefined, hole
}
