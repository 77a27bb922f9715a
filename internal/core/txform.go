// Package core implements NoMap, the paper's contribution: the FTL tier
// places hardware transactions around hot loops, converts the Stack Map
// Points inside them into transactional aborts, and then runs two check
// optimizations that only transactions make legal — bounds-check
// hoisting/sinking over monotonic induction variables (§IV-C1) and
// Sticky-Overflow-Flag-based overflow-check elimination (§IV-C2).
package core

import (
	"cmp"

	"nomap/internal/ir"
	"nomap/internal/stats"
)

// CheckSite identifies one check site within a function, stable across
// recompilations: feedback-refreshed compiles renumber SSA values, but the
// bytecode position and check class of a site survive. For checks living in
// code the inlining pass flattened, Path is the inline path ("callee@pc"
// segments, see ir.InlineFrame.Path) and PC is a pc within that callee —
// the same callee inlined at two call sites stays two distinct sites.
type CheckSite struct {
	PC    int
	Class stats.CheckClass
	Path  string
	// Shape names the per-shape dispatch variant for guards belonging to a
	// polymorphic dispatch tree (ir.Value.DispatchShape); "" for ordinary
	// checks, so pre-IC site identity is unchanged.
	Shape string
}

// Compare is the one canonical site order (inline path, then pc, class,
// shape): governor exports and code-cache key fingerprints both render in it.
func (a CheckSite) Compare(b CheckSite) int {
	return cmp.Or(cmp.Compare(a.Path, b.Path), cmp.Compare(a.PC, b.PC),
		cmp.Compare(a.Class, b.Class), cmp.Compare(a.Shape, b.Shape))
}

// Less reports whether a sorts before b in the canonical order.
func (a CheckSite) Less(b CheckSite) bool { return a.Compare(b) < 0 }

// Family is the site's dispatch family — pc and inline path, no class or
// shape: every guard of one dispatch tree shares it, and demote sets are
// keyed by it.
func (a CheckSite) Family() CheckSite { return CheckSite{PC: a.PC, Path: a.Path} }

// Site is one failing site as it travels from the machine to the governor's
// ledgers: the function whose compiled code holds it (a callee, when the
// failure unwound to a caller's transaction), its recompilation-stable
// identity, whether it guards a dispatch tree, and the IR value id — the
// last diagnostic only, as value numbering does not survive recompilation.
type Site struct {
	Fn string
	CheckSite
	Dispatch bool
	ValueID  int
}

// SiteOf names the site of v in fn's compiled code. class is the failing
// check's class, or stats.CheckOther when v is not a check (an overflowing
// write, a transaction boundary, the call whose callee was irrevocable).
func SiteOf(fn string, v *ir.Value, class stats.CheckClass) Site {
	return Site{Fn: fn, Dispatch: v.Dispatch, ValueID: v.ID,
		CheckSite: CheckSite{PC: v.BCPos, Class: class, Path: v.InlinePath(), Shape: v.DispatchShape()}}
}

// KeepSet selects check sites whose Stack Map Points must be preserved when
// the site sits inside a transaction — the abort-recovery governor's surgical
// SMP restoration: a site that aborts persistently deopts through its SMP
// instead of aborting the whole transaction, while every other check in the
// transaction keeps its NoMap treatment.
type KeepSet map[CheckSite]bool

// HasFamily reports whether the dispatch family at (pc, path) is in the set.
func (k KeepSet) HasFamily(pc int, path string) bool { return k[CheckSite{PC: pc, Path: path}] }

// TxLevel is the transaction placement policy for one function (§V-C): by
// default transactions wrap top-level loop nests (with tile commits at back
// edges bounding the write footprint); after a capacity abort the runtime
// retreats to innermost loops, and finally removes transactions entirely —
// the paper removes them when the overflowing transaction contains a call.
type TxLevel uint8

const (
	// TxLoopNest wraps each outermost loop (the default). No tile commits:
	// an abort restarts the whole loop in Baseline (paper Figure 5).
	TxLoopNest TxLevel = iota
	// TxInnermost wraps only innermost loops (first retreat step).
	TxInnermost
	// TxTiled wraps innermost loops with TxTile commit points at back
	// edges, bounding the write footprint (second retreat step). Tile
	// commits are barriers: loop optimizations that rely on whole-loop
	// rollback (store sinking) are disabled, which is the price of
	// footprint control.
	TxTiled
	// TxOff disables transactions for the function (final retreat, and the
	// immediate choice when an overflowing transaction contains a call).
	TxOff
)

// String names the level.
func (l TxLevel) String() string {
	switch l {
	case TxLoopNest:
		return "loop-nest"
	case TxInnermost:
		return "innermost"
	case TxTiled:
		return "tiled"
	case TxOff:
		return "off"
	}
	return "?"
}

// Lower returns the next retreat step after a capacity abort. Transactions
// containing calls are removed immediately: NoMap assumes the overflow was
// caused by the callee (paper §V-C). Heavyweight RTM (allowTiling=false)
// skips the tiled level: with the small L1D write budget and L2 read-set
// tracking, resizing rarely produces a fitting transaction, and the paper
// observes RTM losing its Kraken transactions entirely (§VII-A).
func (l TxLevel) Lower(hadCalls, allowTiling bool) TxLevel {
	if hadCalls {
		return TxOff
	}
	switch l {
	case TxLoopNest:
		return TxInnermost
	case TxInnermost:
		if allowTiling {
			return TxTiled
		}
		return TxOff
	default:
		return TxOff
	}
}

// FormTransactions inserts TxBegin/TxTile/TxEnd around the selected loops
// and converts every check inside a transaction from an SMP into an abort
// (Deopt = nil). It runs before the optimization pipeline, exactly as the
// paper inserts its transformation before LLVM's passes (§IV-B). Returns
// the number of transactions formed.
func FormTransactions(f *ir.Func, level TxLevel) int {
	return FormTransactionsKeeping(f, level, nil)
}

// FormTransactionsKeeping is FormTransactions with a governor keep set:
// checks whose (bytecode position, class) is in keep retain their SMPs even
// inside transactions, so a persistent failure deopts surgically instead of
// aborting.
func FormTransactionsKeeping(f *ir.Func, level TxLevel, keep KeepSet) int {
	if level == TxOff {
		return 0
	}
	var selected []*ir.Loop
	for _, l := range f.Loops() {
		switch level {
		case TxLoopNest:
			if l.Parent == nil {
				selected = append(selected, l)
			}
		case TxInnermost, TxTiled:
			if len(l.Children) == 0 {
				selected = append(selected, l)
			}
		}
	}
	formed := 0
	for _, l := range selected {
		if wrapLoop(f, l, level == TxTiled, keep) {
			formed++
		}
	}
	if formed > 0 {
		f.TxAware = true
	}
	return formed
}

// wrapLoop places one transaction around loop l.
func wrapLoop(f *ir.Func, l *ir.Loop, tiled bool, keep KeepSet) bool {
	pre := l.Preheader()
	if pre == nil || pre.Kind != ir.BlockPlain {
		return false
	}
	if l.Header.EntryState == nil {
		return false
	}
	exits := l.Exits()
	if len(exits) == 0 {
		return false // infinite loop: no commit point
	}
	for _, e := range exits {
		for _, p := range e.Preds {
			if !l.Contains(p) {
				// The exit block is reachable without entering the loop; a
				// TxEnd there could execute without a begin. Skip the loop.
				return false
			}
		}
	}

	// TxBegin at the end of the preheader. Its recovery map is the loop
	// header's entry state seen from the preheader edge — the paper's
	// Entry₃: Baseline re-executes the whole loop from the top (Figure 5).
	begin := pre.NewValue(ir.OpTxBegin, ir.TypeNone)
	begin.Deopt = ir.ResolveEntryState(l.Header, pre)
	begin.BCPos = l.Header.StartPC

	// In the tiled retreat level, TxTile at each latch provides a back-edge
	// commit point keeping the write footprint within cache capacity (§V-C
	// tiling). Its recovery map is the header entry state seen from the
	// latch edge — the next iteration's state, valid because a tile commit
	// makes prior iterations' writes permanent.
	if tiled {
		for _, latch := range l.Latches() {
			tile := latch.NewValue(ir.OpTxTile, ir.TypeNone)
			tile.Deopt = ir.ResolveEntryState(l.Header, latch)
			tile.BCPos = l.Header.StartPC
		}
	}

	// TxEnd at the start of each exit block.
	for _, e := range exits {
		e.InsertValueAt(0, ir.OpTxEnd, ir.TypeNone)
	}

	// Convert in-transaction SMPs to aborts: it is safe to remove these
	// SMPs because they are not entry points (§IV-B). Sites in the keep set
	// retain their SMP — the governor has diagnosed them as persistent
	// aborters and routes their failures through deoptimization instead.
	for _, b := range l.BlockList() {
		for _, v := range b.Values {
			if v.Op.IsCheck() && !keep[SiteOf(f.Name, v, v.Check).CheckSite] {
				v.Deopt = nil
			}
		}
	}
	return true
}
