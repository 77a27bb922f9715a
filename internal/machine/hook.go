package machine

import "nomap/internal/value"

// txHook is installed as the heap write hook while a transaction is open.
// Every mutation — from FTL code, the Baseline tier, or builtins called
// inside the transaction — is recorded in the HTM write set (for capacity)
// and the undo log (for rollback). This mirrors real HTM, where the cache
// tracks all speculative stores regardless of which code performed them.
type txHook struct {
	m *Machine
}

func (m *Machine) installHook()   { m.host.Shapes().Hook = m.hook }
func (m *Machine) uninstallHook() { m.host.Shapes().Hook = nil }

func (h *txHook) record(addr uint64, size int, undo func()) {
	if err := h.m.HTM.RecordWrite(addr, size, undo); err != nil {
		// The write proceeds (it is in the undo log); the machine aborts the
		// transaction at the next opportunity.
		h.m.pendingCapacity = true
	}
}

func (h *txHook) OnSlotWrite(o *value.Object, off int, old value.Value) {
	h.record(h.m.Mem.SlotAddr(o, off), valueSize, func() { o.RestoreSlot(off, old) })
}

func (h *txHook) OnPropAdd(o *value.Object, oldShape *value.Shape) {
	h.record(h.m.Mem.SlotAddr(o, oldShape.NumSlots), valueSize, func() { o.RestoreShape(oldShape) })
	// The shape word itself is also written.
	h.record(h.m.Mem.ShapeAddr(o), 8, func() {})
}

func (h *txHook) OnElemWrite(o *value.Object, idx int, old value.Value, oldExtent, oldLen int) {
	if idx < oldExtent {
		h.record(h.m.Mem.ElemAddr(o, idx), valueSize, func() { o.RestoreElement(idx, old) })
		return
	}
	// Elongation: the store touches [oldExtent, idx] plus the length word;
	// rollback shrinks the array back.
	first := h.m.Mem.ElemAddr(o, oldExtent)
	last := h.m.Mem.ElemAddr(o, idx)
	h.record(first, int(last-first)+valueSize, func() { o.RestoreExtent(oldExtent, oldLen) })
	h.record(h.m.Mem.LengthAddr(o), 8, func() {})
}

func (h *txHook) OnTruncate(o *value.Object, removed []value.Value, oldLen int) {
	h.record(h.m.Mem.LengthAddr(o), 8, func() { o.RestoreTail(removed, oldLen) })
}

var _ value.WriteHook = (*txHook)(nil)
