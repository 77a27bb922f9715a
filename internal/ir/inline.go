package ir

import (
	"nomap/internal/bytecode"
	"nomap/internal/profile"
)

// InlineOptions bounds the speculative inlining pass.
type InlineOptions struct {
	// Profiles resolves the Baseline profile for a callee's bytecode; the
	// pass builds callee IR from it. Required — no resolver, no inlining.
	Profiles func(*bytecode.Function) *profile.FunctionProfile
	// MaxDepth caps the inline chain (1 = only direct callees of the root).
	MaxDepth int
	// MaxCalleeCode rejects callees longer than this many bytecode instrs.
	MaxCalleeCode int
	// MaxInlines caps total flattened activations per compiled function.
	MaxInlines int
}

// DefaultInlineOptions returns the budget used by the DFG and FTL tiers:
// deep enough for the two-deep helper chains the call-heavy workloads model,
// small enough that flattened loop bodies stay inside HTM capacity.
func DefaultInlineOptions(profiles func(*bytecode.Function) *profile.FunctionProfile) InlineOptions {
	return InlineOptions{Profiles: profiles, MaxDepth: 3, MaxCalleeCode: 48, MaxInlines: 12}
}

// InlineCalls flattens monomorphic OpCallDirect sites into the caller's IR
// and returns how many sites were inlined. A site qualifies when profiling
// already proved it monomorphic — the builder only emits OpCallDirect under
// an OpCheckCallee guard — and the callee is a small warm user function
// (not native, no closure use, within budget, not already on the inline
// path, so recursion never flattens).
//
// The call disappears; the guard stays. Its stack map resumes Baseline at
// the call pc, so a wrong-callee deopt (or abort) simply re-executes the
// call in the interpreter. Every stack map cloned from the callee gets
// inline-frame metadata: Inline names the flattened activation and Caller
// chains to the caller's map at the call site, so a deopt inside inlined
// code reconstructs caller frame + N inlined callee frames, each resumed in
// the interpreter with the callee's result stored back into the caller's
// RetReg. Polymorphic sites never get here (the builder lowers them to
// OpCallRuntime), which is the pass's "must NOT inline" guard.
//
// The payoff is structural, exactly the paper's SMP story one level up:
// with the call boundary gone, the former callee's checks sit in the
// caller's loop where transaction formation converts them to aborts and
// GVN/LICM hoist or merge them across the old boundary — and the machine's
// txHadCalls blame never trips for the flattened callee, so §V-C capacity
// retreat stops pinning call-heavy loops to TxOff.
func InlineCalls(f *Func, opts InlineOptions) int {
	if opts.Profiles == nil || opts.MaxDepth <= 0 || opts.MaxInlines <= 0 {
		return 0
	}
	inlined := 0
	for bi := 0; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for ci := 0; ci < len(b.Values); ci++ {
			v := b.Values[ci]
			if v.Op != OpCallDirect || len(f.Inlines) >= opts.MaxInlines {
				continue
			}
			if inlineSite(f, b, ci, opts) {
				inlined++
				// The block was split at the call; its tail now lives in a
				// later block that this loop will reach (and the flattened
				// callee's own direct calls with it, bounded by MaxDepth).
				break
			}
		}
	}
	f.ApplyForwarding()
	return inlined
}

// inlineSite attempts to flatten the OpCallDirect at b.Values[ci]. It
// mutates f only after every legality check has passed.
func inlineSite(f *Func, b *Block, ci int, opts InlineOptions) bool {
	v := b.Values[ci]
	callee := v.Callee
	if callee == nil || callee.Native != nil || callee.UsesClosure {
		return false
	}
	calleeBc, ok := callee.Code.(*bytecode.Function)
	if !ok || calleeBc == nil || calleeBc.UsesClosure {
		return false
	}
	if opts.MaxCalleeCode > 0 && len(calleeBc.Code) > opts.MaxCalleeCode {
		return false
	}
	// Depth and recursion: the new activation's parent is the activation the
	// call itself belongs to.
	parent := v.Inline
	depth := 1
	if parent != nil {
		depth = parent.Depth + 1
	}
	if depth > opts.MaxDepth {
		return false
	}
	if calleeBc == f.Source {
		return false
	}
	for p := parent; p != nil; p = p.Parent {
		if p.Source == calleeBc {
			return false
		}
	}
	// Only warm callees: a never-invoked profile would build IR that bails
	// to the runtime on every operation.
	prof := opts.Profiles(calleeBc)
	if prof == nil || prof.InvocationCount == 0 {
		return false
	}
	// The guard emitted immediately with the call carries the caller's full
	// register state at the call pc — that map IS the caller frame every
	// inlined stack map chains to.
	var guard *Value
	for gi := ci - 1; gi >= 0; gi-- {
		g := b.Values[gi]
		if g.Op == OpCheckCallee && g.Callee == callee && g.BCPos == v.BCPos && g.Inline == v.Inline {
			guard = g
			break
		}
	}
	if guard == nil || guard.Deopt == nil {
		return false
	}
	// The caller register receiving the result, from the call instruction in
	// the enclosing activation's bytecode.
	encSrc := f.Source
	if parent != nil {
		encSrc = parent.Source
	}
	if v.BCPos < 0 || v.BCPos >= len(encSrc.Code) {
		return false
	}
	callIn := encSrc.Code[v.BCPos]
	if callIn.Op != bytecode.OpCall && callIn.Op != bytecode.OpCallMethod {
		return false
	}
	retReg := int(callIn.A)

	cf, err := Build(calleeBc, prof)
	if err != nil {
		return false
	}
	rets := 0
	for _, cb := range cf.Blocks {
		if cb.Kind == BlockReturn {
			rets++
		}
	}
	if rets == 0 {
		return false // callee never returns; keep the call
	}

	// --- point of no return: mutate f ---
	// An argument may be an earlier site's call, forwarded to its result.
	f.ResolveArgs(v)
	inf := &InlineFrame{
		Parent: parent, Callee: callee, Source: calleeBc,
		CallPC: v.BCPos, RetReg: retReg,
		Depth: depth, Index: len(f.Inlines) + 1,
	}
	f.Inlines = append(f.Inlines, inf)
	callerSM := guard.Deopt

	// Transplant the callee CFG with fresh value IDs. Parameters map to the
	// call's argument values (args[0] is the receiver slot, unread: the
	// bytecode set has no `this` access op); missing arguments map to the
	// callee's own undefined constant.
	bmap := make(map[*Block]*Block, len(cf.Blocks))
	vmap := make(map[*Value]*Value, cf.NumValues())
	for _, cb := range cf.Blocks {
		nb := f.NewBlock()
		nb.Kind = cb.Kind
		nb.StartPC = cb.StartPC
		nb.BackEdge = cb.BackEdge
		nb.Inline = inf
		bmap[cb] = nb
	}
	for _, cb := range cf.Blocks {
		nb := bmap[cb]
		for _, cv := range cb.Values {
			if cv.Op == OpParam {
				continue // mapped below, never materialized
			}
			nv := nb.NewValue(cv.Op, cv.Type)
			nv.AuxInt, nv.AuxFloat, nv.AuxStr = cv.AuxInt, cv.AuxFloat, cv.AuxStr
			nv.AuxVal, nv.Shape, nv.Callee = cv.AuxVal, cv.Shape, cv.Callee
			nv.Check, nv.Free, nv.BCPos = cv.Check, cv.Free, cv.BCPos
			nv.Inline = inf
			vmap[cv] = nv
		}
	}
	calleeUndef := vmap[cf.Entry.Values[0]] // builder creates it first
	for _, cb := range cf.Blocks {
		for _, cv := range cb.Values {
			if cv.Op != OpParam {
				continue
			}
			if i := int(cv.AuxInt) + 1; i < len(v.Args) {
				vmap[cv] = v.Args[i]
			} else {
				vmap[cv] = calleeUndef
			}
		}
	}
	mapSM := func(sm *StackMap) *StackMap {
		if sm == nil {
			return nil
		}
		nsm := &StackMap{PC: sm.PC, Inline: inf, Caller: callerSM, Entries: make([]StackMapEntry, len(sm.Entries))}
		for i, e := range sm.Entries {
			nsm.Entries[i] = StackMapEntry{Reg: e.Reg, Val: vmap[e.Val]}
		}
		return nsm
	}
	for _, cb := range cf.Blocks {
		nb := bmap[cb]
		for _, cv := range cb.Values {
			if cv.Op == OpParam {
				continue
			}
			nv := vmap[cv]
			if len(cv.Args) > 0 {
				nv.Args = make([]*Value, len(cv.Args))
				for i, a := range cv.Args {
					nv.Args[i] = vmap[a]
				}
			}
			// A callee placeholder call carrying a dispatch plan is not
			// expanded here (plans lower only at the top of the pipeline);
			// the copy deliberately drops Plan and the tail-guard snapshot
			// riding on it, leaving a plain generic call.
			if cv.Op != OpCallRuntime {
				nv.Deopt = mapSM(cv.Deopt)
			}
		}
		if cb.Control != nil {
			nb.Control = vmap[cb.Control]
		}
		nb.EntryState = mapSM(cb.EntryState)
		for _, s := range cb.Succs {
			AddEdge(nb, bmap[s])
		}
	}

	// Split the caller block at the call: the tail (with the original
	// terminator) moves to a continuation block, the head (the guard stays)
	// falls through to the flattened callee, and the callee's returns feed
	// the continuation.
	cont := splitAt(b, ci)
	AddEdge(b, bmap[cf.Entry])

	var result *Value
	var retBlocks []*Block
	for _, cb := range cf.Blocks {
		if cb.Kind == BlockReturn {
			retBlocks = append(retBlocks, bmap[cb])
		}
	}
	if len(retBlocks) == 1 {
		rb := retBlocks[0]
		result = rb.Control
		rb.Kind = BlockPlain
		rb.Control = nil
		AddEdge(rb, cont)
	} else {
		merge := f.NewBlock()
		merge.Inline = b.Inline
		var phiArgs []*Value
		for _, rb := range retBlocks {
			phiArgs = append(phiArgs, rb.Control)
			rb.Kind = BlockPlain
			rb.Control = nil
			AddEdge(rb, merge)
		}
		phi := merge.NewValue(OpPhi, TypeGeneric, phiArgs...)
		phi.BCPos = v.BCPos
		phi.Inline = b.Inline
		AddEdge(merge, cont)
		result = phi
	}
	f.Forward(v, result)
	return true
}
