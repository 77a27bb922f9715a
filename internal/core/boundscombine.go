package core

import (
	"nomap/internal/ir"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// boundsClass is the Figure 3 category of the sunk combined check.
const boundsClass = stats.CheckBounds

// CombineBoundsChecks implements the paper's bounds-check combining
// (§IV-C1): in a transaction, bounds checks over a monotonically increasing
// induction variable against a loop-invariant array are replaced by a
// single check of the last index used, sunk after the loop. Inside a
// transaction it does not matter when a failure is detected — only that the
// transaction eventually rolls back — so the per-iteration checks go away
// and mid-loop out-of-bounds accesses read garbage that the abort discards.
//
// The induction-variable analysis is a scalar-evolution subset: a header
// phi i = φ(i₀, i + c) with constant c > 0. (JavaScriptCore builds the same
// facts with LLVM's Scalar Evolution; monotonically decreasing variables,
// which the paper hoists instead, are left unoptimized here — increasing
// loops dominate the suites.) Returns the number of in-loop checks removed.
func CombineBoundsChecks(f *ir.Func) int {
	removed := 0
	for _, l := range f.Loops() {
		removed += combineInLoop(f, l)
	}
	return removed
}

func combineInLoop(f *ir.Func, l *ir.Loop) int {
	pre := l.Preheader()
	exits := l.Exits()
	latches := l.Latches()
	if pre == nil || len(exits) != 1 || len(latches) != 1 {
		return 0
	}
	exit := exits[0]
	latch := latches[0]
	// Exits must leave from the header so the induction phi's value at the
	// exit is well-defined and ≥ every used index + step.
	for _, p := range exit.Preds {
		if p != l.Header {
			return 0
		}
	}

	// Find increasing basic induction variables: phi(init, addi(phi, c)).
	type indVar struct {
		phi  *ir.Value
		step int32
	}
	ivs := map[*ir.Value]indVar{}
	for _, v := range l.Header.Values {
		if v.Op != ir.OpPhi || len(v.Args) != len(l.Header.Preds) {
			continue
		}
		var stepArg *ir.Value
		ok := true
		for i, p := range l.Header.Preds {
			if p == pre {
				continue
			}
			if p != latch {
				ok = false
				break
			}
			stepArg = v.Args[i]
		}
		if !ok || stepArg == nil || stepArg.Op != ir.OpAddInt {
			continue
		}
		var c *ir.Value
		if stepArg.Args[0] == v {
			c = stepArg.Args[1]
		} else if stepArg.Args[1] == v {
			c = stepArg.Args[0]
		} else {
			continue
		}
		if c.Op != ir.OpConst || !c.AuxVal.IsInt32() || c.AuxVal.Int32() <= 0 {
			continue
		}
		ivs[v] = indVar{phi: v, step: c.AuxVal.Int32()}
	}
	if len(ivs) == 0 {
		return 0
	}

	// Collect combinable checks: in-transaction (abort) bounds checks of an
	// invariant array indexed directly by an induction phi.
	type sunk struct {
		arr *ir.Value
		iv  indVar
		pos int // source position for diagnostics
	}
	var toSink []sunk
	seen := map[[2]*ir.Value]bool{}
	removed := 0
	for _, b := range l.BlockList() {
		for i := 0; i < len(b.Values); i++ {
			v := b.Values[i]
			if v.Op != ir.OpCheckBounds || v.Deopt != nil || v.Free {
				continue
			}
			arr, idx := v.Args[0], v.Args[1]
			if l.Contains(arr.Block) {
				continue // array not invariant
			}
			iv, isIV := ivs[idx]
			if !isIV {
				continue
			}
			b.RemoveValue(v)
			i--
			removed++
			key := [2]*ir.Value{arr, idx}
			if !seen[key] {
				seen[key] = true
				toSink = append(toSink, sunk{arr: arr, iv: iv, pos: v.BCPos})
			}
		}
	}

	// Materialize one sunk check per (array, induction variable): check
	// lastUsed = i_exit - step against the bounds, placed before the TxEnd
	// in the exit block. A zero-iteration loop makes lastUsed negative and
	// the check conservatively aborts; Baseline re-executes correctly.
	at := 0
	for _, s := range toSink {
		stepC := exit.InsertValueAt(at, ir.OpConst, ir.TypeInt32)
		stepC.AuxVal = value.Int(s.iv.step)
		last := exit.InsertValueAt(at+1, ir.OpSubInt, ir.TypeInt32, s.iv.phi, stepC)
		last.BCPos = s.pos
		chk := exit.InsertValueAt(at+2, ir.OpCheckBounds, ir.TypeNone, s.arr, last)
		chk.Check = boundsClass
		chk.BCPos = s.pos
		at += 3
	}
	return removed
}
