package machine

import (
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/value"
)

// UndoKind and its values name the undo log's record kinds for the external
// tests.
type UndoKind = undoKind

const (
	UndoSlot   = undoSlot
	UndoElem   = undoElem
	UndoShape  = undoShape
	UndoExtent = undoExtent
	UndoTail   = undoTail
)

// DropUndoKind deletes every record of kind k from the open transaction's
// undo log and reports how many there were: the rollback test's planted bug,
// a replay that forgets one kind.
func (m *Machine) DropUndoKind(k UndoKind) int {
	kept := m.undo[:0]
	for _, r := range m.undo {
		if r.kind != k {
			kept = append(kept, r)
		}
	}
	dropped := len(m.undo) - len(kept)
	clear(m.undo[len(kept):])
	m.undo = kept
	return dropped
}

// SharedUndoKind and its values name the shared section log's record kinds
// for the external tests.
type SharedUndoKind = sharedUndoKind

const (
	UndoCounter   = undoCounter
	UndoMapKey    = undoMapKey
	UndoQueueHead = undoQueueHead
	UndoQueueTail = undoQueueTail
)

// DropSharedUndoKind deletes every record of kind k from the worker's section
// log and reports how many there were: the shared rollback test's planted
// bug, a replay that forgets one kind.
func (w *SharedWorker) DropSharedUndoKind(k SharedUndoKind) int {
	kept := w.log[:0]
	for _, r := range w.log {
		if r.kind != k {
			kept = append(kept, r)
		}
	}
	dropped := len(w.log) - len(kept)
	clear(w.log[len(kept):])
	w.log = kept
	return dropped
}

// RunIR lowers f for tier and runs the program from its invocation entry:
// the tests' hand-built and hand-compiled IR takes the installed path.
func (m *Machine) RunIR(f *ir.Func, tier profile.Tier, args []value.Value) (value.Value, *Deopt, error) {
	p := Lower(f, tier)
	return m.Run(&p, args)
}
