package ir

// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm) and natural
// loop discovery, used by LICM, the bounds-check combining pass, and
// NoMap's transaction formation around loop nests.

import (
	"math/bits"
	"slices"
)

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
	// idom and rpo share one backing array.
	blocks := make([]*Block, maxID+1+len(f.Blocks))
	t := &DomTree{
		idom: blocks[: maxID+1 : maxID+1],
		rpo:  blocks[maxID+1 : maxID+1],
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
	// Blocks is the loop body, header included, ordered by block ID. It is
	// the loop's own slice: callers read it and must not modify it.
	Blocks []*Block
	// in is the body's membership bitset, indexed by block ID.
	in []uint64
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	// Children are directly nested loops.
	Children []*Loop
	// Depth is 1 for top-level loops.
	Depth int
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *Block) bool { return hasBit(l.in, b.ID) }

// BlockList returns the loop's blocks ordered by ID, so passes that create
// or move values while walking a loop number them deterministically. It is
// Blocks itself, not a copy.
func (l *Loop) BlockList() []*Block { return l.Blocks }

func hasBit(set []uint64, i int) bool {
	return i>>6 < len(set) && set[i>>6]&(1<<(i&63)) != 0
}

func setBit(set []uint64, i int) { set[i>>6] |= 1 << (i & 63) }

func countBits(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// FindLoops discovers natural loops via back edges (an edge b->h where h
// dominates b) and nests them into a forest ordered outermost-first.
func FindLoops(f *Func, dom *DomTree) []*Loop {
	// Loops are discovered into one slice and their bitsets into one chunk
	// (words per loop); pointers into them are taken once discovery ends.
	// Bytecode back edges size both; a wrong guess only costs a regrowth.
	rpo := dom.RPO()
	words := (len(dom.rpoN) + 63) / 64
	guess := 0
	for _, b := range rpo {
		guess += btoi(b.BackEdge)
	}
	found := make([]Loop, 0, guess)
	sets := make([]uint64, 0, guess*words)
	stack := make([]*Block, 0, len(rpo))
	for _, b := range rpo {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			k := 0
			for k < len(found) && found[k].Header != s {
				k++
			}
			if k == len(found) {
				found = append(found, Loop{Header: s})
				sets = append(sets, make([]uint64, words)...)
			}
			in := sets[k*words : (k+1)*words]
			setBit(in, s.ID)
			// Collect the natural loop body by walking predecessors from
			// the back edge source.
			stack = append(stack[:0], b)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if hasBit(in, x.ID) {
					continue
				}
				setBit(in, x.ID)
				for _, p := range x.Preds {
					if dom.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	// Every body's blocks come from one chunk, each loop's part sorted by
	// ID. Every body block is reachable, so walking RPO finds them all.
	total := 0
	for k := range found {
		found[k].in = sets[k*words : (k+1)*words : (k+1)*words]
		total += countBits(found[k].in)
	}
	chunk := make([]*Block, total)
	for k := range found {
		size := countBits(found[k].in)
		found[k].Blocks, chunk = chunk[:0:size], chunk[size:]
	}
	for _, b := range rpo {
		for k := range found {
			if l := &found[k]; l.Contains(b) {
				l.Blocks = append(l.Blocks, b)
			}
		}
	}
	for k := range found {
		slices.SortFunc(found[k].Blocks, func(a, b *Block) int { return a.ID - b.ID })
	}
	// The result and every Children list share one array: a loop is the
	// child of at most one loop.
	n := len(found)
	ptrs := make([]*Loop, 2*n)
	loops := ptrs[:n:n]
	for k := range found {
		loops[k] = &found[k]
	}
	// Nest: loop A is a child of the smallest loop B != A containing A's
	// header.
	for _, l := range loops {
		var best *Loop
		for _, m := range loops {
			if m == l || !m.Contains(l.Header) {
				continue
			}
			if best == nil || len(m.Blocks) < len(best.Blocks) {
				best = m
			}
		}
		l.Parent = best
	}
	next := n
	for _, l := range loops {
		start := next
		for _, c := range loops {
			if c.Parent == l {
				ptrs[next] = c
				next++
			}
		}
		if next > start {
			l.Children = ptrs[start:next:next]
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
		if l.Contains(p) {
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
	var exits []*Block
	for _, b := range l.Blocks {
		for _, s := range b.Succs {
			if !l.Contains(s) && !slices.Contains(exits, s) {
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
		if l.Contains(p) {
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
	sm := header.Fn.maps.newMap(src.PC, len(src.Entries))
	sm.Inline, sm.Caller = src.Inline, src.Caller
	for i, e := range src.Entries {
		v := e.Val
		for v.Op == OpPhi && v.Block == header && k < len(v.Args) {
			nv := v.Args[k]
			if nv == v {
				break
			}
			v = nv
		}
		sm.Entries[i] = StackMapEntry{Reg: e.Reg, Val: v}
	}
	return sm
}
