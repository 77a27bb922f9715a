package ir

// Clone returns a deep copy of f that shares no mutable IR state with the
// original, plus the original→copy value mapping, so a pass can run on the
// copy while the original stays as it was (the optimizer's and forwarding's
// tests compare the two). References carried on values — Shape, Callee,
// AuxVal — are copied verbatim. Value and block IDs are preserved, so
// NumValues and diagnostics match the original. Inline frames are
// deep-copied too, and stack-map Caller chains keep their sharing
// structure: maps shared between several deopt points in the original stay
// shared in the copy.
func (f *Func) Clone() (*Func, map[*Value]*Value) {
	nf := &Func{
		Name:        f.Name,
		Source:      f.Source,
		nextValueID: f.nextValueID,
		nextBlockID: f.nextBlockID,
		TxAware:     f.TxAware,
		OSREntryPC:  f.OSREntryPC,
		Dispatch:    append([]DispatchInfo(nil), f.Dispatch...),
	}
	imap := make(map[*InlineFrame]*InlineFrame, len(f.Inlines))
	for _, inf := range f.Inlines {
		c := *inf
		imap[inf] = &c
	}
	for _, inf := range f.Inlines {
		ni := imap[inf]
		if inf.Parent != nil {
			ni.Parent = imap[inf.Parent]
		}
		nf.Inlines = append(nf.Inlines, ni)
	}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	vmap := make(map[*Value]*Value, f.nextValueID)
	smmap := make(map[*StackMap]*StackMap)
	// The copies come from one slice of blocks and one chunk sized by the
	// placed values; only orphans start a further chunk.
	live := 0
	blocks := make([]Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		live += len(b.Values)
		nb := &blocks[i]
		*nb = Block{ID: b.ID, Kind: b.Kind, StartPC: b.StartPC, BackEdge: b.BackEdge, Inline: imap[b.Inline], Fn: nf}
		bmap[b] = nb
		nf.Blocks[i] = nb
	}
	nf.values = make([]Value, 0, live)
	edges := 0
	for _, b := range f.Blocks {
		edges += len(b.Succs) + len(b.Preds)
	}
	nf.edges = make([]*Block, 0, edges)
	// remap tolerates references to values no longer placed in any block
	// (e.g. a stale EntryState surviving DCE) by cloning them as orphans:
	// they are reachable only through the referencing stack map, exactly
	// like the original's.
	var remap func(v *Value) *Value
	var remapSM func(sm *StackMap) *StackMap
	remap = func(v *Value) *Value {
		if v == nil {
			return nil
		}
		if nv, ok := vmap[v]; ok {
			return nv
		}
		nv := nf.allocValue()
		*nv = Value{
			ID: v.ID, Op: v.Op, Type: v.Type,
			AuxInt: v.AuxInt, AuxFloat: v.AuxFloat, AuxStr: v.AuxStr,
			AuxVal: v.AuxVal, Shape: v.Shape, Callee: v.Callee,
			Check: v.Check, Free: v.Free, BCPos: v.BCPos,
			Plan: v.Plan, Dispatch: v.Dispatch,
			Inline: imap[v.Inline],
			Block:  bmap[v.Block],
		}
		vmap[v] = nv
		if len(v.Args) > 0 {
			nv.Args = carve(&nf.operands, len(v.Args), len(v.Args))
			for i, a := range v.Args {
				nv.Args[i] = remap(a)
			}
		}
		nv.Deopt = remapSM(v.Deopt)
		return nv
	}
	remapSM = func(sm *StackMap) *StackMap {
		if sm == nil {
			return nil
		}
		if nsm, ok := smmap[sm]; ok {
			return nsm
		}
		nsm := nf.maps.newMap(sm.PC, len(sm.Entries))
		nsm.Inline = imap[sm.Inline]
		smmap[sm] = nsm
		for i, e := range sm.Entries {
			nsm.Entries[i] = StackMapEntry{Reg: e.Reg, Val: remap(e.Val)}
		}
		nsm.Caller = remapSM(sm.Caller)
		return nsm
	}
	for _, b := range f.Blocks {
		nb := bmap[b]
		nb.Values = make([]*Value, len(b.Values))
		for i, v := range b.Values {
			nb.Values[i] = remap(v)
		}
	}
	for _, b := range f.Blocks {
		nb := bmap[b]
		nb.Control = remap(b.Control)
		nb.EntryState = remapSM(b.EntryState)
		nb.Succs = carve(&nf.edges, 0, len(b.Succs))
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, bmap[s])
		}
		nb.Preds = carve(&nf.edges, 0, len(b.Preds))
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, bmap[p])
		}
	}
	nf.Entry = bmap[f.Entry]
	return nf, vmap
}
