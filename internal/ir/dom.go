package ir

// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm) and natural
// loop discovery, used by LICM, the bounds-check combining pass, and
// NoMap's transaction formation around loop nests.

import "slices"

// DomTree holds immediate dominators indexed by block ID.
type DomTree struct {
	idom []*Block
	rpo  []*Block
	rpoN []int // block ID -> reverse postorder number
}

// BuildDom computes the dominator tree of f.
func BuildDom(f *Func) *DomTree {
	maxID := 0
	for _, b := range f.Blocks {
		if b.ID > maxID {
			maxID = b.ID
		}
	}
	t := &DomTree{
		idom: make([]*Block, maxID+1),
		rpo:  make([]*Block, 0, len(f.Blocks)),
		rpoN: make([]int, maxID+1),
	}
	// Reverse postorder over reachable blocks: the postorder, reversed in
	// place. rpoN marks visited blocks until it is numbered.
	for i := range t.rpoN {
		t.rpoN[i] = -1
	}
	t.postorder(f.Entry)
	slices.Reverse(t.rpo)
	for i, b := range t.rpo {
		t.rpoN[b.ID] = i
	}
	t.idom[f.Entry.ID] = f.Entry
	for changed := true; changed; {
		changed = false
		for _, b := range t.rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if t.rpoN[p.ID] < 0 || t.idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return t
}

// postorder appends the blocks reachable from b, unvisited so far, to t.rpo
// in postorder.
func (t *DomTree) postorder(b *Block) {
	t.rpoN[b.ID] = 0
	for _, s := range b.Succs {
		if t.rpoN[s.ID] < 0 {
			t.postorder(s)
		}
	}
	t.rpo = append(t.rpo, b)
}

func (t *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for t.rpoN[a.ID] > t.rpoN[b.ID] {
			a = t.idom[a.ID]
		}
		for t.rpoN[b.ID] > t.rpoN[a.ID] {
			b = t.idom[b.ID]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (entry dominates itself).
func (t *DomTree) Idom(b *Block) *Block { return t.idom[b.ID] }

// Reachable reports whether b was reachable from entry when the tree was
// built.
func (t *DomTree) Reachable(b *Block) bool {
	return b.ID < len(t.rpoN) && t.rpoN[b.ID] >= 0
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		id := t.idom[b.ID]
		if id == nil || id == b {
			return false
		}
		b = id
	}
}

// RPO returns blocks in reverse postorder.
func (t *DomTree) RPO() []*Block { return t.rpo }

// Loop is a natural loop.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	// Children are directly nested loops.
	Children []*Loop
	// Depth is 1 for top-level loops.
	Depth int
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// BlockList returns the loop's blocks ordered by ID. Blocks is a set; passes
// that create or move values while walking it must use this instead so that
// value numbering does not depend on map iteration order.
func (l *Loop) BlockList() []*Block {
	out := make([]*Block, 0, len(l.Blocks))
	for b := range l.Blocks {
		out = append(out, b)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FindLoops discovers natural loops via back edges (an edge b->h where h
// dominates b) and nests them into a forest ordered outermost-first.
func FindLoops(f *Func, dom *DomTree) []*Loop {
	byHeader := make(map[*Block]*Loop)
	var loops []*Loop
	for _, b := range dom.RPO() {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			l, ok := byHeader[s]
			if !ok {
				l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			// Collect the natural loop body by walking predecessors from
			// the back edge source.
			stack := []*Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, p := range x.Preds {
					if dom.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Nest: loop A is a child of the smallest loop B != A containing A's
	// header.
	for _, l := range loops {
		var best *Loop
		for _, m := range loops {
			if m == l || !m.Blocks[l.Header] {
				continue
			}
			if best == nil || len(m.Blocks) < len(best.Blocks) {
				best = m
			}
		}
		l.Parent = best
		if best != nil {
			best.Children = append(best.Children, l)
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

// Preheader returns the unique out-of-loop predecessor of the loop header,
// or nil when there is none (multiple entries).
func (l *Loop) Preheader() *Block {
	var pre *Block
	for _, p := range l.Header.Preds {
		if l.Blocks[p] {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	return pre
}

// Exits returns the blocks outside the loop that are targets of edges from
// inside the loop, ordered by the exiting block's ID.
func (l *Loop) Exits() []*Block {
	seen := map[*Block]bool{}
	var exits []*Block
	for _, b := range l.BlockList() {
		for _, s := range b.Succs {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				exits = append(exits, s)
			}
		}
	}
	return exits
}

// Latches returns the in-loop predecessors of the header (back-edge sources).
func (l *Loop) Latches() []*Block {
	var latches []*Block
	for _, p := range l.Header.Preds {
		if l.Blocks[p] {
			latches = append(latches, p)
		}
	}
	return latches
}

// ResolveEntryState projects a loop header's entry state onto one incoming
// edge: the header's own phis are replaced by their argument along that
// edge, yielding values that dominate the edge's source block. Used both by
// NoMap's transaction recovery maps and by check hoisting (a check relocated
// to the preheader needs a stack map valid there). Requires EntryState to
// still be populated (pre-DCE).
func ResolveEntryState(header *Block, pred *Block) *StackMap {
	k := header.PredIndex(pred)
	src := header.EntryState
	// Inline/Caller carry over: a loop inside flattened callee code recovers
	// into the callee's logical frame, with the caller chain intact.
	sm := &StackMap{PC: src.PC, Inline: src.Inline, Caller: src.Caller, Entries: make([]StackMapEntry, 0, len(src.Entries))}
	for _, e := range src.Entries {
		v := e.Val
		for v.Op == OpPhi && v.Block == header && k < len(v.Args) {
			nv := v.Args[k]
			if nv == v {
				break
			}
			v = nv
		}
		sm.Entries = append(sm.Entries, StackMapEntry{Reg: e.Reg, Val: v})
	}
	return sm
}
