package value

import "sync/atomic"

// Hidden classes ("shapes" in the paper's terminology, "structures" in
// JavaScriptCore) describe an object's property layout. Objects sharing the
// same creation history share a shape, which is what makes the FTL tier's
// property checks (compare one shape pointer, then load at a fixed offset)
// possible. Shape transitions form a tree rooted at an empty shape.

// Shape is an immutable node in the hidden-class transition tree.
type Shape struct {
	ID          uint32
	Parent      *Shape
	Key         string // property added by this transition ("" at the root)
	Offset      int    // slot index of Key
	NumSlots    int
	transitions map[string]*Shape
	table       map[string]int // lazily built full name->offset table
}

// WriteHook observes heap mutations before they happen, receiving enough
// state to undo them. The HTM simulator installs one while a transaction is
// open so that every write — whether performed by optimized FTL code, the
// Baseline tier, or a builtin called from inside the transaction — lands in
// the transactional write set and the undo log.
type WriteHook interface {
	// OnSlotWrite fires before property slot off is overwritten.
	OnSlotWrite(o *Object, off int, old Value)
	// OnPropAdd fires before a shape-transitioning property add.
	OnPropAdd(o *Object, oldShape *Shape)
	// OnElemWrite fires before element idx is written. old is the previous
	// raw element (possibly a hole); oldExtent and oldLen describe the
	// element store before any elongation.
	OnElemWrite(o *Object, idx int, old Value, oldExtent, oldLen int)
	// OnTruncate fires before the array length shrinks, with the removed
	// tail (so rollback can restore it) and the previous length.
	OnTruncate(o *Object, removed []Value, oldLen int)
}

// ShapeTable allocates shape IDs and owns the root of a transition tree.
// A VM instance has exactly one table so shape identity is comparable.
// Its Hook, when non-nil, observes all mutations of objects created from it.
type ShapeTable struct {
	nextID uint32
	Root   *Shape
	Hook   WriteHook

	// mark is the last ID of the template tree (Mark); template holds its
	// shapes, the only ones whose transitions a Rewind must prune.
	mark     uint32
	template []*Shape
}

// NewShapeTable returns a table with a fresh empty root shape.
func NewShapeTable() *ShapeTable {
	t := &ShapeTable{}
	t.Root = &Shape{ID: t.allocID()}
	return t
}

func (t *ShapeTable) allocID() uint32 {
	t.nextID++
	return t.nextID
}

// Transition returns the shape reached from s by adding key, creating it on
// first use. The result is cached so repeated object construction with the
// same property order converges on a single shape — the monomorphism the
// FTL property checks rely on.
func (t *ShapeTable) Transition(s *Shape, key string) *Shape {
	if next, ok := s.transitions[key]; ok {
		return next
	}
	next := &Shape{
		ID:       t.allocID(),
		Parent:   s,
		Key:      key,
		Offset:   s.NumSlots,
		NumSlots: s.NumSlots + 1,
	}
	if s.transitions == nil {
		s.transitions = make(map[string]*Shape, 4)
	}
	s.transitions[key] = next
	return next
}

// Mark makes the table's current tree its template: Rewind returns the
// table to exactly this tree.
func (t *ShapeTable) Mark() {
	t.mark = t.nextID
	t.template = append(t.template[:0], t.Root)
	for i := 0; i < len(t.template); i++ {
		for _, next := range t.template[i].transitions {
			t.template = append(t.template, next)
		}
	}
}

// Rewind returns the table to its template (Mark; the bare root when never
// marked): every transition created since is deleted from the template
// shapes, IDs restart after the template's, and the Hook is cleared. A
// program then gets the same shapes and IDs as on a fresh table built the
// same way, and Holds is false for every shape the deleted transitions led
// to, so nothing can resolve a reference to one. The template shapes and
// their lookup tables are kept.
func (t *ShapeTable) Rewind() {
	if t.template == nil {
		t.mark, t.template = t.Root.ID, []*Shape{t.Root}
	}
	for _, s := range t.template {
		for key, next := range s.transitions {
			if next.ID > t.mark {
				delete(s.transitions, key)
			}
		}
	}
	t.nextID = t.mark
	t.Hook = nil
}

// Path returns the transition keys that reach s from its table's root, in
// transition order. Because shapes are immutable nodes of a transition tree,
// the path is a table-independent identity: replaying it against any table
// (Replay) yields the analogous shape. The serving layer uses this to
// relocate shape references between isolates.
func (s *Shape) Path() []string {
	path := make([]string, 0, s.NumSlots)
	for cur := s; cur != nil && cur.Key != ""; cur = cur.Parent {
		path = append(path, cur.Key)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Replay walks a transition path from the table's root, creating any missing
// shapes, and returns the shape it reaches. Replay(s.Path()) on another table
// returns that table's analogue of s; on s's own table it returns s itself.
func (t *ShapeTable) Replay(path []string) *Shape {
	s := t.Root
	for _, key := range path {
		s = t.Transition(s, key)
	}
	return s
}

// Holds reports whether s is a node of t's transition tree — exactly when
// Replay(s.Path()) returns s — without creating any shape.
func (t *ShapeTable) Holds(s *Shape) bool {
	for ; s.Key != ""; s = s.Parent {
		if s.Parent == nil || s.Parent.transitions[s.Key] != s {
			return false
		}
	}
	return s == t.Root
}

// Lookup returns the slot offset of key in s, or -1 when absent.
func (s *Shape) Lookup(key string) int {
	if s.table == nil {
		s.buildTable()
	}
	if off, ok := s.table[key]; ok {
		return off
	}
	return -1
}

func (s *Shape) buildTable() {
	s.table = make(map[string]int, s.NumSlots)
	for cur := s; cur != nil && cur.Key != ""; cur = cur.Parent {
		if _, ok := s.table[cur.Key]; !ok {
			s.table[cur.Key] = cur.Offset
		}
	}
}

// Keys returns the property names of s in insertion order.
func (s *Shape) Keys() []string {
	keys := make([]string, s.NumSlots)
	for cur := s; cur != nil && cur.Key != ""; cur = cur.Parent {
		keys[cur.Offset] = cur.Key
	}
	return keys
}

// Object is a JavaScript object: shape-described named properties plus, for
// arrays, a dense element store with holes and automatic elongation.
type Object struct {
	Shape *Shape
	Slots []Value

	// Array state. IsArray objects expose .length and indexed elements.
	IsArray  bool
	Elements []Value // KindHole marks absent elements
	Length   int     // JS array length; >= populated extent

	// Fn is non-nil for callable objects.
	Fn *Function

	// Class is a diagnostic label ("Object", "Array", "Function", "Math").
	Class string

	table *ShapeTable

	// The engine's bookkeeping lives on the object, so that boxing it or
	// giving it simulated addresses costs no map entry: its index in the
	// handle slab that boxed it last, and its regions in the address space
	// that touched it last. An isolate has one of each at a time; a Reset
	// gives it new ones, which claim the object afresh.
	slab    Owner
	space   Owner
	handle  uint32
	regions Regions
}

// Owner identifies one handle slab or one simulated address space. Owners
// are never reused (and never zero), so an object that outlives its owner (a
// reset isolate's heap) never matches the next one.
type Owner uint64

var lastOwner atomic.Uint64

// NewOwner returns an owner distinct from every other.
func NewOwner() Owner { return Owner(lastOwner.Add(1)) }

// Regions are an object's simulated base addresses in one address space: its
// header and named slots, and its element store. Zero means not yet assigned.
type Regions struct{ Slots, Elems uint64 }

// RegionsIn returns o's regions in address space space, claiming o for it
// with none assigned when another space touched o last.
func (o *Object) RegionsIn(space Owner) *Regions {
	if o.space != space {
		o.space, o.regions = space, Regions{}
	}
	return &o.regions
}

// An object's storage lives inline with its header when it fits one of the
// fixed buffer sizes below, so a literal is one allocation; a larger one gets
// a header plus one exact-size slice. Storage that outgrows its buffer moves
// to the heap through append, and rollback only ever truncates.
type (
	inline2 struct {
		o   Object
		buf [2]Value
	}
	inline4 struct {
		o   Object
		buf [4]Value
	}
	inline8 struct {
		o   Object
		buf [8]Value
	}
)

// alloc returns a zero object and empty storage of capacity at least n,
// sharing one allocation when n is at most 8.
func alloc(n int) (*Object, []Value) {
	switch {
	case n <= 0:
		return &Object{}, nil
	case n <= 2:
		p := &inline2{}
		return &p.o, p.buf[:0]
	case n <= 4:
		p := &inline4{}
		return &p.o, p.buf[:0]
	case n <= 8:
		p := &inline8{}
		return &p.o, p.buf[:0]
	}
	return &Object{}, make([]Value, 0, n)
}

// NewObject creates a plain object with the table's root shape and room for
// slots properties (an object literal's key count; 0 when unknown).
func NewObject(t *ShapeTable, slots int) *Object {
	o, buf := alloc(slots)
	o.Shape, o.Slots, o.Class, o.table = t.Root, buf, "Object", t
	return o
}

// NewArray creates an array of the given length filled with holes.
func NewArray(t *ShapeTable, length int) *Object {
	o, buf := alloc(length)
	o.Shape, o.Class, o.IsArray, o.table = t.Root, "Array", true, t
	if length > 0 {
		o.Elements = buf[:length]
		for i := range o.Elements {
			o.Elements[i] = Hole()
		}
		o.Length = length
	}
	return o
}

// NewFunctionObject wraps fn in a callable object.
func NewFunctionObject(t *ShapeTable, fn *Function) *Object {
	return &Object{Shape: t.Root, Class: "Function", Fn: fn, table: t}
}

// NewFunctionObjects wraps each of fns in a callable object, all in one
// allocation: objs[i] wraps fns[i].
func NewFunctionObjects(t *ShapeTable, fns []*Function) []Object {
	objs := make([]Object, len(fns))
	for i, fn := range fns {
		objs[i] = Object{Shape: t.Root, Class: "Function", Fn: fn, table: t}
	}
	return objs
}

// NewObjectOf creates a plain object of shape s (a shape of t) whose slots
// are a copy of slots, one per property of s.
func NewObjectOf(t *ShapeTable, s *Shape, class string, slots []Value) *Object {
	o, buf := alloc(len(slots))
	o.Shape, o.Slots, o.Class, o.table = s, append(buf, slots...), class, t
	return o
}

// Table returns the shape table this object belongs to.
func (o *Object) Table() *ShapeTable { return o.table }

// Get returns the named property, or undefined when absent. Array "length"
// is synthesized from the element store.
func (o *Object) Get(key string) Value {
	if o.IsArray && key == "length" {
		return Int(int32(o.Length))
	}
	if off := o.Shape.Lookup(key); off >= 0 {
		return o.Slots[off]
	}
	return Undefined()
}

// Has reports whether the object has the named property.
func (o *Object) Has(key string) bool {
	if o.IsArray && key == "length" {
		return true
	}
	return o.Shape.Lookup(key) >= 0
}

// Set stores a named property, transitioning the shape when the property is
// new. Setting array "length" truncates or elongates the element store.
func (o *Object) Set(key string, v Value) {
	if o.IsArray && key == "length" {
		o.SetLength(int(v.ToInt32()))
		return
	}
	if off := o.Shape.Lookup(key); off >= 0 {
		if h := o.hook(); h != nil {
			h.OnSlotWrite(o, off, o.Slots[off])
		}
		o.Slots[off] = v
		return
	}
	if h := o.hook(); h != nil {
		h.OnPropAdd(o, o.Shape)
	}
	o.Shape = o.table.Transition(o.Shape, key)
	o.Slots = append(o.Slots, v)
}

func (o *Object) hook() WriteHook {
	if o.table == nil {
		return nil
	}
	return o.table.Hook
}

// OffsetOf returns the slot offset of key, or -1. Used by inline caches.
func (o *Object) OffsetOf(key string) int { return o.Shape.Lookup(key) }

// GetSlot reads property storage directly; used by specialized tier code
// after a property check has validated the shape.
func (o *Object) GetSlot(off int) Value { return o.Slots[off] }

// SetSlot writes property storage directly after a property check.
func (o *Object) SetSlot(off int, v Value) {
	if h := o.hook(); h != nil {
		h.OnSlotWrite(o, off, o.Slots[off])
	}
	o.Slots[off] = v
}

// GetElement returns element i, mapping holes and out-of-bounds accesses to
// undefined — the semantics the Baseline tier's loadArrayValue runtime call
// provides (paper §IV-B: "it never crashes").
func (o *Object) GetElement(i int) Value {
	if i < 0 || i >= len(o.Elements) {
		return Undefined()
	}
	e := o.Elements[i]
	if e.IsHole() {
		return Undefined()
	}
	return e
}

// ElementRaw returns the element including the hole marker, for in-bounds i.
func (o *Object) ElementRaw(i int) Value { return o.Elements[i] }

// HasHoleAt reports whether in-bounds element i is a hole.
func (o *Object) HasHoleAt(i int) bool {
	return i >= 0 && i < len(o.Elements) && o.Elements[i].IsHole()
}

// InBounds reports whether i is within the populated element store.
func (o *Object) InBounds(i int) bool { return i >= 0 && i < len(o.Elements) }

// ElementCount returns the populated element-store length (a store at
// exactly this index is an append, not an out-of-bounds miss).
func (o *Object) ElementCount() int { return len(o.Elements) }

// SetElement stores element i, elongating the array as JavaScript does when
// i is past the end. Negative indices are ignored (our subset does not model
// sparse named-index properties).
func (o *Object) SetElement(i int, v Value) {
	if i < 0 {
		return
	}
	if h := o.hook(); h != nil {
		old := Hole()
		if i < len(o.Elements) {
			old = o.Elements[i]
		}
		h.OnElemWrite(o, i, old, len(o.Elements), o.Length)
	}
	if i >= len(o.Elements) {
		for len(o.Elements) < i {
			o.Elements = append(o.Elements, Hole())
		}
		o.Elements = append(o.Elements, v)
	} else {
		o.Elements[i] = v
	}
	if i+1 > o.Length {
		o.Length = i + 1
	}
}

// RestoreExtent rolls the element store back to extent/length (undo support;
// only the HTM simulator should call this).
func (o *Object) RestoreExtent(extent, length int) {
	if extent < len(o.Elements) {
		o.Elements = o.Elements[:extent]
	}
	o.Length = length
}

// RestoreShape rolls back a property-add transition (undo support).
func (o *Object) RestoreShape(s *Shape) {
	o.Shape = s
	if s.NumSlots < len(o.Slots) {
		o.Slots = o.Slots[:s.NumSlots]
	}
}

// RestoreElement writes an element without firing the hook (undo support).
func (o *Object) RestoreElement(i int, v Value) {
	if i >= 0 && i < len(o.Elements) {
		o.Elements[i] = v
	}
}

// RestoreSlot writes a slot without firing the hook (undo support).
func (o *Object) RestoreSlot(off int, v Value) {
	if off >= 0 && off < len(o.Slots) {
		o.Slots[off] = v
	}
}

// RestoreTail re-appends a truncated tail (undo support).
func (o *Object) RestoreTail(removed []Value, oldLen int) {
	o.Elements = append(o.Elements, removed...)
	o.Length = oldLen
}

// SetLength adjusts the array length, truncating elements when shrinking.
func (o *Object) SetLength(n int) {
	if n < 0 {
		n = 0
	}
	if n < len(o.Elements) {
		if h := o.hook(); h != nil {
			removed := make([]Value, len(o.Elements)-n)
			copy(removed, o.Elements[n:])
			h.OnTruncate(o, removed, o.Length)
		}
		o.Elements = o.Elements[:n]
	} else if n > o.Length {
		if h := o.hook(); h != nil {
			h.OnElemWrite(o, n-1, Hole(), len(o.Elements), o.Length)
		}
	}
	o.Length = n
}

// Push appends a value (Array.prototype.push).
func (o *Object) Push(v Value) int {
	o.SetElement(o.Length, v)
	return o.Length
}

// Pop removes and returns the last element (Array.prototype.pop).
func (o *Object) Pop() Value {
	if o.Length == 0 {
		return Undefined()
	}
	v := o.GetElement(o.Length - 1)
	o.SetLength(o.Length - 1)
	return v
}
