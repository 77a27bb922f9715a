package opt

import "nomap/internal/ir"

// PromoteLoopStores performs scalar promotion of loop-carried memory slots —
// the paper's motivating example (Figure 4(d)): a loop that accumulates into
// obj.sum every iteration keeps the accumulator in a register instead, with
// one store after the loop.
//
// The transformation is only legal when the loop contains no barrier: with
// SMPs present, the Baseline tier reads the accumulator from memory on any
// deopt, so the store must stay in the loop (paper §III-B). Inside a
// transaction the SMPs are aborts, the rollback discards partial state, and
// sinking is sound.
//
// Requirements (conservative, matching the common compiled loop shape):
//   - single latch; store's block dominates the latch,
//   - exactly one exit block whose predecessor set lies inside the loop,
//     with the exit edge leaving from the loop header,
//   - the store's object is loop-invariant and is the only store to its
//     slot-offset alias class in the loop,
//   - no barriers (calls / SMPs) anywhere in the loop.
func PromoteLoopStores(f *ir.Func) {
	for _, l := range f.Loops() {
		promoteLoop(f, l)
	}
	f.ApplyForwarding()
}

// promoteLoop promotes at most one slot of l. A load promoted in an earlier
// loop is forwarded, not yet rewritten, so arguments are read through
// f.Resolve.
func promoteLoop(f *ir.Func, l *ir.Loop) {
	dom := f.Dom()
	pre := l.Preheader()
	latches := l.Latches()
	exits := l.Exits()
	if pre == nil || len(latches) != 1 || len(exits) != 1 {
		return
	}
	latch := latches[0]
	exit := exits[0]
	for _, p := range exit.Preds {
		if !l.Contains(p) {
			return
		}
		if p != l.Header {
			return // exits must leave from the header
		}
	}

	// Collect stores and reject loops with barriers.
	type slotKey struct {
		obj *ir.Value
		off int64
	}
	storeCount := map[memKey]int{}
	var stores []*ir.Value
	for _, b := range l.BlockList() {
		for _, v := range b.Values {
			if v.IsBarrier() {
				return
			}
			if v.Op == ir.OpStoreSlot {
				storeCount[memKey{kind: kindSlot, off: v.AuxInt}]++
				stores = append(stores, v)
			}
		}
	}

	for _, st := range stores {
		obj := f.Resolve(st.Args[0])
		if l.Contains(obj.Block) {
			continue // object not invariant
		}
		if storeCount[memKey{kind: kindSlot, off: st.AuxInt}] != 1 {
			continue
		}
		if !dom.Dominates(st.Block, latch) {
			continue // conditionally executed store
		}
		// All in-loop loads of this slot must be from the same object value
		// (same SSA value ⇒ same object at runtime) and must execute before
		// the store in each iteration, so they see the iteration-start
		// accumulator value.
		var loads []*ir.Value
		ok := true
		for _, b := range l.BlockList() {
			for pos, v := range b.Values {
				if v.Op == ir.OpLoadSlot && v.AuxInt == st.AuxInt {
					if f.Resolve(v.Args[0]) != obj {
						ok = false
					}
					if b == st.Block {
						if pos > indexOf(b, st) {
							ok = false
						}
					} else if !dom.Dominates(b, st.Block) {
						ok = false
					}
					loads = append(loads, v)
				}
			}
		}
		if !ok {
			continue
		}
		// The stored value must be available at the latch (dominate it).
		stored := f.Resolve(st.Args[1])
		if !dom.Dominates(stored.Block, latch) {
			continue
		}

		// init = load in preheader.
		init := pre.NewValue(ir.OpLoadSlot, ir.TypeGeneric, obj)
		init.AuxInt = st.AuxInt
		init.BCPos = st.BCPos

		// acc = phi(init from preheader, stored from latch) at the header.
		acc := l.Header.InsertValueAt(0, ir.OpPhi, ir.TypeGeneric)
		acc.Args = make([]*ir.Value, len(l.Header.Preds))
		for i, p := range l.Header.Preds {
			if p == pre {
				acc.Args[i] = init
			} else {
				acc.Args[i] = stored
			}
		}
		acc.Type = stored.Type

		// In-loop loads of the slot become the accumulator.
		for _, ld := range loads {
			f.Forward(ld, acc)
			ld.Block.RemoveValue(ld)
		}
		// Replace the in-loop store with one in the exit block; since exits
		// leave from the header, the live value there is the phi.
		st.Block.RemoveValue(st)
		sunk := exit.InsertValueAt(insertAfterTxBoundary(exit), ir.OpStoreSlot, ir.TypeNone, obj, acc)
		sunk.AuxInt = st.AuxInt
		sunk.BCPos = st.BCPos

		// Only promote one slot per loop per pass invocation: bookkeeping
		// (storeCount, loads) is stale after a rewrite.
		return
	}
}

func indexOf(b *ir.Block, v *ir.Value) int {
	for i, w := range b.Values {
		if w == v {
			return i
		}
	}
	return -1
}

// insertAfterTxBoundary returns the index in exit.Values just before the
// TxEnd (the sunk store must still be inside the transaction); with no TxEnd
// present it returns 0.
func insertAfterTxBoundary(exit *ir.Block) int {
	for i, v := range exit.Values {
		if v.Op == ir.OpTxEnd {
			return i
		}
		if v.Op != ir.OpPhi {
			return i
		}
	}
	return len(exit.Values)
}
