package machine

import "nomap/internal/value"

// Memory assigns deterministic simulated addresses to the JS heap so the
// cache simulator and the HTM write-set tracking see a realistic address
// stream. Each object gets a slot region (named properties) and, lazily, an
// element region (array storage). Regions are spaced widely; only accessed
// bytes matter to the cache model.
type Memory struct {
	slotBase map[*value.Object]uint64
	elemBase map[*value.Object]uint64
	next     uint64
}

// NewMemory creates an empty address map.
func NewMemory() *Memory {
	return &Memory{
		slotBase: make(map[*value.Object]uint64),
		elemBase: make(map[*value.Object]uint64),
		next:     0x1000,
	}
}

const (
	slotRegion = 1 << 10 // room for 120 slots after the 0x40 header
	elemRegion = 1 << 22 // 4MB of element storage per array
	valueSize  = 8       // one stored value (NaN-boxed 64-bit word)
)

func (m *Memory) base(o *value.Object) uint64 {
	b, ok := m.slotBase[o]
	if !ok {
		b = m.next
		m.next += slotRegion
		m.slotBase[o] = b
	}
	return b
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
	b, ok := m.elemBase[o]
	if !ok {
		b = m.next
		m.next += elemRegion
		m.elemBase[o] = b
	}
	return b + uint64(idx)*valueSize
}
