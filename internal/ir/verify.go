package ir

import "fmt"

// Verify checks structural SSA invariants. It is run after construction and
// after every optimization pass in tests, catching pass bugs early. It
// builds its own dominator tree and loop forest, and fails when f's cached
// ones disagree with them: a pass edited the CFG without InvalidateCFG.
func Verify(f *Func) error {
	if f.Entry == nil {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	dom := BuildDom(f)
	if err := f.checkAnalyses(dom); err != nil {
		return err
	}
	inFunc := make(map[*Value]*Block)
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Block != b {
				return fmt.Errorf("%s: v%d claims block b%d but lives in b%d", f.Name, v.ID, v.Block.ID, b.ID)
			}
			inFunc[v] = b
		}
	}
	for _, b := range f.Blocks {
		// Edge symmetry.
		for _, s := range b.Succs {
			if s.PredIndex(b) < 0 {
				return fmt.Errorf("%s: edge b%d->b%d missing from preds", f.Name, b.ID, s.ID)
			}
		}
		switch b.Kind {
		case BlockPlain:
			if dom.Reachable(b) && len(b.Succs) != 1 {
				return fmt.Errorf("%s: plain block b%d has %d succs", f.Name, b.ID, len(b.Succs))
			}
		case BlockIf:
			if len(b.Succs) != 2 {
				return fmt.Errorf("%s: if block b%d has %d succs", f.Name, b.ID, len(b.Succs))
			}
			if b.Control == nil {
				return fmt.Errorf("%s: if block b%d has no control", f.Name, b.ID)
			}
		case BlockReturn:
			if len(b.Succs) != 0 {
				return fmt.Errorf("%s: return block b%d has succs", f.Name, b.ID)
			}
			if b.Control == nil {
				return fmt.Errorf("%s: return block b%d has no control", f.Name, b.ID)
			}
		}
		if b.Control != nil {
			if _, ok := inFunc[b.Control]; !ok {
				return fmt.Errorf("%s: b%d control v%d not in function", f.Name, b.ID, b.Control.ID)
			}
		}
		phiZone := true
		for _, v := range b.Values {
			if v.Op == OpPhi {
				if !phiZone {
					return fmt.Errorf("%s: phi v%d after non-phi in b%d", f.Name, v.ID, b.ID)
				}
				if dom.Reachable(b) && len(v.Args) != len(b.Preds) {
					return fmt.Errorf("%s: phi v%d has %d args for %d preds in b%d", f.Name, v.ID, len(v.Args), len(b.Preds), b.ID)
				}
			} else {
				phiZone = false
			}
			for _, a := range v.Args {
				if a == nil {
					return fmt.Errorf("%s: v%d has nil arg", f.Name, v.ID)
				}
				if _, ok := inFunc[a]; !ok {
					return fmt.Errorf("%s: v%d uses v%d which is not in the function", f.Name, v.ID, a.ID)
				}
			}
			if v.Op.IsCheck() || v.Op == OpTxBegin || v.Op == OpTxTile {
				for sm := v.Deopt; sm != nil; sm = sm.Caller {
					if (sm.Caller == nil) != (sm.Inline == nil) {
						return fmt.Errorf("%s: v%d stack map has Inline/Caller mismatch", f.Name, v.ID)
					}
					for _, e := range sm.Entries {
						if e.Val == nil {
							return fmt.Errorf("%s: v%d stack map entry r%d is nil", f.Name, v.ID, e.Reg)
						}
						if _, ok := inFunc[e.Val]; !ok {
							return fmt.Errorf("%s: v%d stack map references dead v%d", f.Name, v.ID, e.Val.ID)
						}
					}
				}
			}
		}
	}
	// Defs dominate uses (within reachable code).
	pos := make(map[*Value]int)
	for _, b := range f.Blocks {
		for i, v := range b.Values {
			pos[v] = i
		}
	}
	checkUse := func(user, used *Value, isPhi bool, predIdx int) error {
		ub, db := user.Block, used.Block
		if !dom.Reachable(ub) || !dom.Reachable(db) {
			return nil
		}
		if isPhi {
			// Phi use happens at the end of the predecessor.
			pred := ub.Preds[predIdx]
			if !dom.Dominates(db, pred) {
				return fmt.Errorf("%s: phi v%d arg v%d (b%d) does not dominate pred b%d", f.Name, user.ID, used.ID, db.ID, pred.ID)
			}
			return nil
		}
		if ub == db {
			if pos[used] >= pos[user] {
				return fmt.Errorf("%s: v%d uses later v%d in same block b%d", f.Name, user.ID, used.ID, ub.ID)
			}
			return nil
		}
		if !dom.Dominates(db, ub) {
			return fmt.Errorf("%s: def v%d (b%d) does not dominate use v%d (b%d)", f.Name, used.ID, db.ID, user.ID, ub.ID)
		}
		return nil
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			for i, a := range v.Args {
				if err := checkUse(v, a, v.Op == OpPhi, i); err != nil {
					return err
				}
			}
			for sm := v.Deopt; sm != nil; sm = sm.Caller {
				for _, e := range sm.Entries {
					if err := checkUse(v, e.Val, false, 0); err != nil {
						return fmt.Errorf("stack map: %w", err)
					}
				}
			}
		}
	}
	return nil
}
