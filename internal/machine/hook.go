package machine

import "nomap/internal/value"

// txHook is installed as the heap write hook while a transaction is open.
// Every mutation — from FTL code, the Baseline tier, or builtins called
// inside the transaction — is recorded in the HTM write set (for capacity)
// and the machine's undo log (for rollback). This mirrors real HTM, where
// the cache tracks all speculative stores regardless of which code performed
// them.
type txHook struct {
	m *Machine
}

func (m *Machine) installHook()   { m.host.Shapes().Hook = m.hook }
func (m *Machine) uninstallHook() { m.host.Shapes().Hook = nil }

// undoKind names what an undoRec restores: one kind per heap mutation the
// write hook observes.
type undoKind uint8

const (
	undoSlot   undoKind = iota // slot a of o held old
	undoElem                   // element a of o held old
	undoShape                  // o had shape (before a property add)
	undoExtent                 // o's element store ended at a, with length b
	undoTail                   // o had length b and the removed tail
)

// undoRec is one entry of the machine's undo log: the state a transactional
// heap store overwrote, kept by value so a store costs a log record and not a
// heap object. The log lives as long as the machine and is emptied whenever a
// transaction retires.
type undoRec struct {
	o     *value.Object
	kind  undoKind
	a, b  int
	old   value.Value
	shape *value.Shape
	tail  []value.Value
}

// track adds [addr, addr+size) to the HTM write set.
func (h *txHook) track(addr uint64, size int) {
	if err := h.m.HTM.RecordWrite(addr, size, nil); err != nil {
		// The write proceeds (it is in the undo log); the machine aborts the
		// transaction at the next opportunity.
		h.m.pendingCapacity = true
	}
}

func (h *txHook) OnSlotWrite(o *value.Object, off int, old value.Value) {
	h.m.undo = append(h.m.undo, undoRec{o: o, kind: undoSlot, a: off, old: old})
	h.track(h.m.Mem.SlotAddr(o, off), valueSize)
}

func (h *txHook) OnPropAdd(o *value.Object, oldShape *value.Shape) {
	h.m.undo = append(h.m.undo, undoRec{o: o, kind: undoShape, shape: oldShape})
	h.track(h.m.Mem.SlotAddr(o, oldShape.NumSlots), valueSize)
	// The shape word itself is also written.
	h.track(h.m.Mem.ShapeAddr(o), 8)
}

func (h *txHook) OnElemWrite(o *value.Object, idx int, old value.Value, oldExtent, oldLen int) {
	if idx < oldExtent {
		h.m.undo = append(h.m.undo, undoRec{o: o, kind: undoElem, a: idx, old: old})
		h.track(h.m.Mem.ElemAddr(o, idx), valueSize)
		return
	}
	// Elongation: the store touches [oldExtent, idx] plus the length word;
	// rollback shrinks the array back.
	h.m.undo = append(h.m.undo, undoRec{o: o, kind: undoExtent, a: oldExtent, b: oldLen})
	first := h.m.Mem.ElemAddr(o, oldExtent)
	last := h.m.Mem.ElemAddr(o, idx)
	h.track(first, int(last-first)+valueSize)
	h.track(h.m.Mem.LengthAddr(o), 8)
}

func (h *txHook) OnTruncate(o *value.Object, removed []value.Value, oldLen int) {
	h.m.undo = append(h.m.undo, undoRec{o: o, kind: undoTail, b: oldLen, tail: removed})
	h.track(h.m.Mem.LengthAddr(o), 8)
}

// rollback replays the undo log newest-first, restoring the heap to its state
// at the outermost transaction begin.
func (m *Machine) rollback() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		r := &m.undo[i]
		switch r.kind {
		case undoSlot:
			r.o.RestoreSlot(r.a, r.old)
		case undoElem:
			r.o.RestoreElement(r.a, r.old)
		case undoShape:
			r.o.RestoreShape(r.shape)
		case undoExtent:
			r.o.RestoreExtent(r.a, r.b)
		case undoTail:
			r.o.RestoreTail(r.tail, r.b)
		}
	}
	m.dropUndo()
}

// dropUndo empties the undo log, clearing its heap references: the
// transaction it belonged to has retired.
func (m *Machine) dropUndo() {
	clear(m.undo)
	m.undo = m.undo[:0]
}

var _ value.WriteHook = (*txHook)(nil)
