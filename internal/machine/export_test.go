package machine

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
