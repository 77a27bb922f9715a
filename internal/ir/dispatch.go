package ir

import (
	"nomap/internal/ic"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// ExpandDispatch materializes the dispatch plans the builder attached to
// generic-call placeholders (OpCallRuntime values with a non-nil Plan) as
// shape-guarded dispatch trees, and returns how many trees it built. It runs
// immediately after IR construction in both the DFG and FTL pipelines —
// before inlining, transaction formation, and the loop passes — so the trees
// it builds are ordinary guarded code to every later pass: the per-way
// OpCheckCallee guards qualify for speculative inlining exactly like
// monomorphic sites, transaction formation converts the deopting tail guard
// to an abort inside transactions, and GVN/LICM treat the predicates as
// shape reads.
//
// demoted, when non-nil, reports sites the governor has demoted to the
// generic path (megamorphic storms past the dispatch-miss budget); their
// plans are dropped and the placeholder call — which is already a correct
// generic lowering — simply stays. Every processed placeholder has its Plan
// (and the tail-guard snapshot riding on it) cleared, so no plan survives
// into cached artifacts.
//
// Tree shape for a plan with ways w0..w{n-1} (hotness order): a chain of
// BlockIf blocks, each testing one way with a non-deopting predicate
// (OpHasShape / OpHasCallee) and branching to that way's body; the final
// chain block re-asserts the last way with a deopting guard (OpCheckShape /
// OpCheckCallee carrying the site snapshot) so an unplanned receiver exits
// to Baseline — or aborts its transaction — like any other failed
// speculation. Bodies rejoin at the placeholder's continuation, merging
// results through a phi.
func ExpandDispatch(f *Func, demoted func(pc int, path string) bool) int {
	expanded := 0
	for bi := 0; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for ci := 0; ci < len(b.Values); ci++ {
			v := b.Values[ci]
			if v.Op != OpCallRuntime || v.Plan == nil {
				continue
			}
			plan := v.Plan
			v.Plan = nil
			if demoted != nil && demoted(v.BCPos, v.InlinePath()) {
				v.Deopt = nil // demoted: the generic call stays as-is
				continue
			}
			expandSite(f, b, ci, v, plan)
			expanded++
			break // b was split at the site; the tail is a later block
		}
	}
	f.ApplyForwarding()
	return expanded
}

// expandSite replaces the placeholder call at b.Values[ci] with a dispatch
// tree for plan.
func expandSite(f *Func, b *Block, ci int, v *Value, plan *ic.Plan) {
	// The receiver may be an earlier site's placeholder, forwarded to its
	// result.
	f.ResolveArgs(v)
	trans := 0
	for _, w := range plan.Ways {
		if w.NewShape != nil {
			trans++
		}
	}
	f.Dispatch = append(f.Dispatch, DispatchInfo{
		PC: v.BCPos, Path: v.InlinePath(), Kind: plan.Kind, Name: plan.Name,
		Ways: len(plan.Ways), Trans: trans,
	})

	// Split b at the placeholder: the tail (with the original terminator)
	// moves to a continuation block the way bodies rejoin at.
	cont := splitAt(b, ci)

	// newVal stamps a dispatch-tree value with the site's position.
	newVal := func(blk *Block, op Op, t Type, args ...*Value) *Value {
		nv := blk.NewValue(op, t, args...)
		nv.BCPos = v.BCPos
		nv.Inline = v.Inline
		return nv
	}

	// body emits one way's specialized code into blk and returns its result
	// (nil for stores).
	body := func(blk *Block, w *ic.Way) *Value {
		switch plan.Kind {
		case ic.KindGet:
			obj := v.Args[0]
			ld := newVal(blk, OpLoadSlot, TypeGeneric, obj)
			ld.AuxInt = int64(w.Offset)
			return ld
		case ic.KindSet:
			obj, src := v.Args[0], v.Args[2]
			if w.NewShape != nil {
				// Speculated transition: the shape guard proved the property
				// is absent, so the store is the append path and the receiver
				// leaves with NewShape.
				tr := newVal(blk, OpTransition, TypeNone, obj, src)
				tr.AuxStr = plan.Name
				tr.AuxInt = int64(w.Offset)
				tr.Shape = w.NewShape
				// Dispatch-marked so trace events name the destination shape;
				// OpTransition is not a check, so no injection or governor
				// site identity rides on the mark.
				tr.Dispatch = true
				return nil
			}
			st := newVal(blk, OpStoreSlot, TypeNone, obj, src)
			st.AuxInt = int64(w.Offset)
			return nil
		case ic.KindCall:
			callee := v.Args[0]
			guard := newVal(blk, OpCheckCallee, TypeNone, callee)
			guard.Callee = w.Target
			guard.Check = stats.CheckOther
			guard.Deopt = v.Deopt
			guard.Dispatch = true
			undef := newVal(blk, OpConst, TypeGeneric)
			undef.AuxVal = value.Undefined()
			call := newVal(blk, OpCallDirect, TypeGeneric, append([]*Value{undef}, v.Args[1:]...)...)
			call.Callee = w.Target
			return call
		case ic.KindMethod:
			recv := v.Args[0]
			m := newVal(blk, OpLoadSlot, TypeGeneric, recv)
			m.AuxInt = int64(w.Offset)
			guard := newVal(blk, OpCheckCallee, TypeNone, m)
			guard.Callee = w.Target
			guard.Check = stats.CheckOther
			guard.Deopt = v.Deopt
			guard.Dispatch = true
			call := newVal(blk, OpCallDirect, TypeGeneric, append([]*Value{recv}, v.Args[2:]...)...)
			call.Callee = w.Target
			return call
		}
		return nil
	}

	// predicate emits way w's non-deopting test into blk.
	predicate := func(blk *Block, w *ic.Way) *Value {
		if plan.Kind == ic.KindCall {
			p := newVal(blk, OpHasCallee, TypeBool, v.Args[0])
			p.Callee = w.Target
			p.Dispatch = true
			return p
		}
		p := newVal(blk, OpHasShape, TypeBool, v.Args[0])
		p.Shape = w.Shape
		p.Dispatch = true
		return p
	}

	// tailGuard re-asserts the last way with a deopting check.
	tailGuard := func(blk *Block, w *ic.Way) {
		if plan.Kind == ic.KindCall {
			g := newVal(blk, OpCheckCallee, TypeNone, v.Args[0])
			g.Callee = w.Target
			g.Check = stats.CheckOther
			g.Deopt = v.Deopt
			g.Dispatch = true
			return
		}
		g := newVal(blk, OpCheckShape, TypeNone, v.Args[0])
		g.Shape = w.Shape
		g.Check = stats.CheckProperty
		g.Deopt = v.Deopt
		g.Dispatch = true
	}

	// Build the chain: b tests way 0; each subsequent chain block tests the
	// next way; the final chain block guards the last way and runs its body
	// inline. Bodies edge into cont in way order, the tail block last, so
	// the result phi's argument order matches cont.Preds.
	n := len(plan.Ways)
	var results []*Value
	chain := b
	for k := 0; k < n-1; k++ {
		w := &plan.Ways[k]
		p := predicate(chain, w)
		chain.Kind = BlockIf
		chain.Control = p
		wayBlk := f.NewBlock()
		wayBlk.Inline = b.Inline
		results = append(results, body(wayBlk, w))
		AddEdge(chain, wayBlk)
		AddEdge(wayBlk, cont)
		next := f.NewBlock()
		next.Inline = b.Inline
		AddEdge(chain, next)
		chain = next
	}
	last := &plan.Ways[n-1]
	tailGuard(chain, last)
	results = append(results, body(chain, last))
	chain.Kind = BlockPlain
	AddEdge(chain, cont)

	// Merge results and forward the placeholder's uses. Store plans produce
	// no value (the bytecode's SetProp has no destination register, so the
	// placeholder is use-free outside stack maps, where undefined — the
	// value a re-executed store leaves — is what a Baseline resume expects).
	if plan.Kind == ic.KindGet || plan.Kind == ic.KindCall || plan.Kind == ic.KindMethod {
		phi := cont.InsertValueAt(0, OpPhi, TypeGeneric, results...)
		phi.BCPos = v.BCPos
		phi.Inline = b.Inline
		f.Forward(v, phi)
	} else {
		undef := newVal(b, OpConst, TypeGeneric)
		undef.AuxVal = value.Undefined()
		f.Forward(v, undef)
	}
	v.Deopt = nil
}
