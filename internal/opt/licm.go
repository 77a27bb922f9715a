package opt

import "nomap/internal/ir"

// LICM hoists loop-invariant values to the loop preheader.
//
// Pure operations hoist whenever their operands are invariant (moving a
// total pure op across an SMP is legal — only its register pressure cost
// changes, which the weights absorb). Loads and abort-checks additionally
// require that the loop contain no barrier — no opaque call and no
// SMP-carrying check (paper §III-A3) — and that the loop not write their
// alias class. SMP-carrying checks themselves never move: relocating a
// deoptimization point would change the Baseline state it must reproduce.
//
// In the Base configuration virtually every loop contains SMPs, so only
// pure arithmetic hoists; once NoMap converts in-transaction SMPs to
// aborts, shape checks, array checks, and invariant loads all leave the
// loop — the paper's enabling effect.
func LICM(f *ir.Func) {
	// Innermost first so hoisted values can cascade outward on later calls.
	for _, l := range f.LoopsInnermostFirst() {
		hoistLoop(f, l)
	}
}

func hoistLoop(f *ir.Func, l *ir.Loop) {
	pre := l.Preheader()
	if pre == nil {
		return
	}
	hasBarrier := false
	written := map[memKey]bool{}
	hasStore := false
	for _, b := range l.BlockList() {
		for _, v := range b.Values {
			if v.IsBarrier() {
				hasBarrier = true
			}
			for _, wk := range writeKeys(v) {
				written[wk] = true
				hasStore = true
			}
		}
	}

	hoisted := map[*ir.Value]bool{}
	invariant := func(v *ir.Value) bool {
		return !l.Contains(v.Block) || hoisted[v]
	}
	canHoist := func(v *ir.Value) bool {
		for _, a := range v.Args {
			if !invariant(a) {
				return false
			}
		}
		switch {
		case v.Dispatch:
			// Dispatch-tree predicates and guards are control-dependent on
			// their chain; hoisting one out of its diamond would test it for
			// receivers that belong to other ways.
			return false
		case v.Op == ir.OpPhi || v.Op == ir.OpParam:
			return false
		case v.Op.IsPure():
			return true
		case v.Op.IsCheck():
			if v.Deopt != nil {
				return false // SMPs never move
			}
			if hasBarrier {
				return false
			}
			for _, rk := range readKeys(v) {
				if written[rk] {
					return false
				}
			}
			// Checks of kinds the paper's passes hoist: shape, array, type.
			return true
		case v.Op.ReadsMemory() && !v.Op.WritesMemory() && !v.Op.IsCall():
			if hasBarrier || hasStore && anyWritten(written, readKeys(v)) {
				return false
			}
			if hasBarrier {
				return false
			}
			return true
		}
		return false
	}

	// Iterate to a fixpoint over the loop body in RPO.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Dom().RPO() {
			if !l.Contains(b) {
				continue
			}
			for i := 0; i < len(b.Values); i++ {
				v := b.Values[i]
				if hoisted[v] || !canHoist(v) {
					continue
				}
				// Checks and loads must be guaranteed to execute on the
				// hoisted path only when total; all our machine ops are
				// garbage-tolerant, so speculative hoisting is safe.
				b.RemoveValue(v)
				v.Block = pre
				pre.Values = append(pre.Values, v)
				hoisted[v] = true
				i--
				changed = true
			}
		}
	}
}

func anyWritten(written map[memKey]bool, keys []memKey) bool {
	for _, k := range keys {
		if written[k] {
			return true
		}
	}
	return false
}
