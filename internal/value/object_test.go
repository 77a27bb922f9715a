package value

import (
	"testing"
	"testing/quick"
)

func TestShapeTransitionsShared(t *testing.T) {
	table := NewShapeTable()
	a := NewObject(table, 0)
	b := NewObject(table, 0)
	a.Set("x", Int(1))
	a.Set("y", Int(2))
	b.Set("x", Int(10))
	b.Set("y", Int(20))
	if a.Shape != b.Shape {
		t.Fatal("objects built with the same property order must share a shape")
	}
	c := NewObject(table, 0)
	c.Set("y", Int(1))
	c.Set("x", Int(2))
	if c.Shape == a.Shape {
		t.Fatal("different property order must yield a different shape")
	}
	if a.Shape.Lookup("x") != 0 || a.Shape.Lookup("y") != 1 {
		t.Fatalf("offsets: x=%d y=%d", a.Shape.Lookup("x"), a.Shape.Lookup("y"))
	}
	if a.Shape.Lookup("z") != -1 {
		t.Fatal("missing property must report -1")
	}
}

func TestShapeKeysOrder(t *testing.T) {
	table := NewShapeTable()
	o := NewObject(table, 0)
	o.Set("a", Int(1))
	o.Set("b", Int(2))
	o.Set("c", Int(3))
	keys := o.Shape.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys() = %v", keys)
	}
}

func TestPropertyGetSet(t *testing.T) {
	table := NewShapeTable()
	o := NewObject(table, 0)
	if !o.Get("missing").IsUndefined() {
		t.Fatal("missing property must be undefined")
	}
	o.Set("p", Str("v"))
	if o.Get("p").ToStringValue() != "v" {
		t.Fatal("property read-back failed")
	}
	o.Set("p", Int(9)) // overwrite must not transition
	s := o.Shape
	o.Set("p", Int(10))
	if o.Shape != s {
		t.Fatal("overwriting must not change shape")
	}
	if !StrictEquals(o.Get("p"), Int(10)) {
		t.Fatal("overwrite lost")
	}
}

func TestArrayElongationAndHoles(t *testing.T) {
	table := NewShapeTable()
	a := NewArray(table, 0)
	a.SetElement(0, Int(1))
	a.SetElement(5, Int(6)) // creates holes 1..4
	if a.Length != 6 {
		t.Fatalf("Length = %d, want 6", a.Length)
	}
	if !StrictEquals(a.Get("length"), Int(6)) {
		t.Fatal("length property wrong")
	}
	if !a.GetElement(3).IsUndefined() {
		t.Fatal("hole must read as undefined")
	}
	if !a.HasHoleAt(3) {
		t.Fatal("HasHoleAt must see the hole")
	}
	if a.HasHoleAt(0) || a.HasHoleAt(5) {
		t.Fatal("populated elements are not holes")
	}
	if !a.GetElement(100).IsUndefined() {
		t.Fatal("out of bounds must read as undefined")
	}
	if !a.GetElement(-1).IsUndefined() {
		t.Fatal("negative index must read as undefined")
	}
}

func TestArrayLengthTruncation(t *testing.T) {
	table := NewShapeTable()
	a := NewArray(table, 4)
	for i := 0; i < 4; i++ {
		a.SetElement(i, Int(int32(i)))
	}
	a.Set("length", Int(2))
	if a.Length != 2 {
		t.Fatalf("Length = %d", a.Length)
	}
	if !a.GetElement(3).IsUndefined() {
		t.Fatal("truncated element must be gone")
	}
}

func TestArrayPushPop(t *testing.T) {
	table := NewShapeTable()
	a := NewArray(table, 0)
	if n := a.Push(Int(1)); n != 1 {
		t.Fatalf("push returned %d", n)
	}
	a.Push(Int(2))
	if v := a.Pop(); !StrictEquals(v, Int(2)) {
		t.Fatalf("pop = %v", v)
	}
	if a.Length != 1 {
		t.Fatalf("Length = %d", a.Length)
	}
	a.Pop()
	if v := a.Pop(); !v.IsUndefined() {
		t.Fatalf("pop of empty = %v", v)
	}
}

func TestArrayPropertiesCoexistWithElements(t *testing.T) {
	table := NewShapeTable()
	a := NewArray(table, 2)
	a.Set("tag", Str("t"))
	a.SetElement(0, Int(5))
	if a.Get("tag").ToStringValue() != "t" {
		t.Fatal("named property lost on array")
	}
	if !StrictEquals(a.GetElement(0), Int(5)) {
		t.Fatal("element lost")
	}
}

func TestEnvironmentCapture(t *testing.T) {
	outer := NewEnvironment(nil, 2)
	inner := NewEnvironment(outer, 1)
	outer.Slots[1].V = Int(42)
	if got := inner.At(1, 1).V; !StrictEquals(got, Int(42)) {
		t.Fatalf("At(1,1) = %v", got)
	}
	inner.At(1, 1).V = Int(43) // mutation through the cell is shared
	if got := outer.Slots[1].V; !StrictEquals(got, Int(43)) {
		t.Fatalf("shared cell mutation lost: %v", got)
	}
}

// Property: after any sequence of SetElement at indices < 64, GetElement
// returns the last written value and Length is 1 + max index written.
func TestQuickArraySetGet(t *testing.T) {
	table := NewShapeTable()
	f := func(writes []uint8) bool {
		a := NewArray(table, 0)
		last := map[int]int32{}
		maxIdx := -1
		for n, w := range writes {
			idx := int(w % 64)
			a.SetElement(idx, Int(int32(n)))
			last[idx] = int32(n)
			if idx > maxIdx {
				maxIdx = idx
			}
		}
		if a.Length != maxIdx+1 {
			return false
		}
		for idx, want := range last {
			if !StrictEquals(a.GetElement(idx), Int(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shape lookup agrees with a plain map for any property sequence.
func TestQuickShapeLookupMatchesMap(t *testing.T) {
	table := NewShapeTable()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	f := func(seq []uint8) bool {
		o := NewObject(table, 0)
		ref := map[string]Value{}
		for n, s := range seq {
			key := names[int(s)%len(names)]
			v := Int(int32(n))
			o.Set(key, v)
			ref[key] = v
		}
		for k, want := range ref {
			if !StrictEquals(o.Get(k), want) {
				return false
			}
		}
		return len(ref) == o.Shape.NumSlots
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A literal's storage is sized from its literal: inline up to 8 slots or
// elements, exact above, none at size 0. Growing past it moves the storage
// and keeps every value.
func TestLiteralStorageCapacity(t *testing.T) {
	table := NewShapeTable()
	for _, tc := range []struct{ n, objCap, arrCap int }{
		{0, 0, 0}, {1, 2, 2}, {2, 2, 2}, {3, 4, 4}, {4, 4, 4}, {5, 8, 8}, {8, 8, 8}, {9, 9, 9},
	} {
		o := NewObject(table, tc.n)
		if len(o.Slots) != 0 || cap(o.Slots) != tc.objCap {
			t.Errorf("NewObject(%d): len %d cap %d, want 0 and %d", tc.n, len(o.Slots), cap(o.Slots), tc.objCap)
		}
		a := NewArray(table, tc.n)
		if a.Length != tc.n || len(a.Elements) != tc.n || cap(a.Elements) != tc.arrCap {
			t.Errorf("NewArray(%d): length %d len %d cap %d, want %d, %d and %d",
				tc.n, a.Length, len(a.Elements), cap(a.Elements), tc.n, tc.n, tc.arrCap)
		}
		for i := range a.Elements {
			if !a.HasHoleAt(i) {
				t.Errorf("NewArray(%d): element %d is not a hole", tc.n, i)
			}
		}
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
		for i, k := range keys {
			o.Set(k, Int(int32(i)))
			a.SetElement(tc.n+i, Int(int32(i)))
		}
		for i, k := range keys {
			if o.Get(k) != Int(int32(i)) || a.GetElement(tc.n+i) != Int(int32(i)) {
				t.Fatalf("size %d: value %d lost when the storage grew", tc.n, i)
			}
		}
	}
}

// A slab gives each object one handle of its own, and after a Reset it
// claims an object boxed before afresh rather than reading its stale handle.
// The zero Handles is a slab like any other.
func TestHandlesReset(t *testing.T) {
	table := NewShapeTable()
	o, p := NewObject(table, 0), NewObject(table, 0)
	for _, h := range []*Handles{NewHandles(), {}} {
		bo, bp := h.BoxObject(o), h.BoxObject(p)
		if bo == bp || h.BoxObject(o) != bo || h.Object(bo) != o || h.Object(bp) != p {
			t.Fatal("a slab must give each object one handle of its own")
		}
		h.Reset()
		q := NewObject(table, 0)
		bq, bo2 := h.BoxObject(q), h.BoxObject(o)
		if h.Object(bq) != q || h.Object(bo2) != o || h.BoxObject(o) != bo2 || bq == bo2 {
			t.Fatal("after a Reset, an object boxed before it must get a fresh handle, not its stale one")
		}
	}
}

// nopHook is a WriteHook that observes nothing.
type nopHook struct{}

func (nopHook) OnSlotWrite(*Object, int, Value)           {}
func (nopHook) OnPropAdd(*Object, *Shape)                 {}
func (nopHook) OnElemWrite(*Object, int, Value, int, int) {}
func (nopHook) OnTruncate(*Object, []Value, int)          {}

// A rewound table hands a program the same shapes, with the same IDs, as a
// fresh table built up to the same Mark; it no longer holds any shape
// created after the Mark, keeps the template's own, and drops its hook.
func TestShapeTableRewind(t *testing.T) {
	build := func() *ShapeTable {
		table := NewShapeTable()
		table.Replay([]string{"a", "b"})
		table.Replay([]string{"c"})
		table.Mark()
		return table
	}
	// The tenant reuses a template shape, extends one, extends the root, and
	// grows past the template's deepest shape.
	paths := [][]string{{"a", "b"}, {"a", "x"}, {"y"}, {"c", "d", "e"}, {"a", "b", "z"}}
	tenant := func(table *ShapeTable) []*Shape {
		var out []*Shape
		for _, p := range paths {
			out = append(out, table.Replay(p))
		}
		return out
	}

	want := tenant(build())
	used := build()
	stale := tenant(used)
	used.Hook = nopHook{}
	used.Rewind()
	if used.Hook != nil {
		t.Error("Rewind must clear the hook")
	}
	if !used.Holds(stale[0]) {
		t.Error("a template shape must survive Rewind")
	}
	for _, s := range stale[1:] {
		if used.Holds(s) {
			t.Errorf("shape %v created after Mark is still held after Rewind", s.Path())
		}
	}
	got := tenant(used)
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Offset != want[i].Offset {
			t.Errorf("%v: ID %d offset %d after Rewind, want %d, %d as on a fresh table",
				paths[i], got[i].ID, got[i].Offset, want[i].ID, want[i].Offset)
		}
		if i > 0 && got[i] == stale[i] {
			t.Errorf("%v: Rewind handed back a shape the previous tenant created", paths[i])
		}
	}

	// A table never marked rewinds to its bare root.
	bare := NewShapeTable()
	x := bare.Replay([]string{"x"})
	bare.Rewind()
	if bare.Holds(x) || bare.Replay([]string{"y"}).ID != x.ID {
		t.Error("an unmarked table must rewind to its root")
	}
}
