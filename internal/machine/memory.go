package machine

import "nomap/internal/value"

// Memory assigns deterministic simulated addresses to the JS heap so the
// cache simulator and the HTM write-set tracking see a realistic address
// stream. Each object gets a slot region (named properties) and, lazily, an
// element region (array storage). Regions are spaced widely; only accessed
// bytes matter to the cache model.
//
// An object keeps its regions in this space itself (value.Object.RegionsIn),
// so assigning them costs no map entry.
type Memory struct {
	space value.Owner
	next  uint64
}

// NewMemory creates an empty address map.
func NewMemory() *Memory {
	return &Memory{space: value.NewOwner(), next: 0x1000}
}

const (
	slotRegion = 1 << 10 // room for 120 slots after the 0x40 header
	elemRegion = 1 << 22 // 4MB of element storage per array
	valueSize  = 8       // one stored value (NaN-boxed 64-bit word)
)

// assign returns *base, first giving it the next region of size bytes.
func (m *Memory) assign(base *uint64, size uint64) uint64 {
	if *base == 0 {
		*base = m.next
		m.next += size
	}
	return *base
}

func (m *Memory) base(o *value.Object) uint64 {
	return m.assign(&o.RegionsIn(m.space).Slots, slotRegion)
}

// SlotAddr returns the address of property slot off of o.
func (m *Memory) SlotAddr(o *value.Object, off int) uint64 {
	return m.base(o) + 0x40 + uint64(off)*valueSize
}

// ShapeAddr returns the address of the hidden-class word (read by shape
// checks).
func (m *Memory) ShapeAddr(o *value.Object) uint64 { return m.base(o) }

// LengthAddr returns the address of the array length word.
func (m *Memory) LengthAddr(o *value.Object) uint64 { return m.base(o) + 8 }

// ElemAddr returns the address of element idx of o.
func (m *Memory) ElemAddr(o *value.Object, idx int) uint64 {
	return m.assign(&o.RegionsIn(m.space).Elems, elemRegion) + uint64(idx)*valueSize
}
