package ir

// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm) and natural
// loop discovery, used by LICM, the bounds-check combining pass, and
// NoMap's transaction formation around loop nests. Each Func caches both
// for its current CFG.

import (
	"fmt"
	"math/bits"
	"slices"
)

// analyses caches a Func's dominator tree and loop forest for the CFG they
// were computed on. The mutators that change the CFG (NewBlock, AddEdge,
// and splitAt through NewBlock) drop them; a pass that edits Preds, Succs
// or Blocks by hand calls InvalidateCFG itself. Verify computes both afresh
// and fails when a cached one disagrees.
type analyses struct {
	dom          DomTree
	loops, inner []*Loop
	domOK        bool
	loopsOK      bool
}

// onAnalysis, when a test sets it, observes every cache fill: loops is false
// for the dominator tree and true for the loop forest.
var onAnalysis func(loops bool)

// Dom returns f's dominator tree, computed on first use after a CFG change.
// The tree is f's: it changes when f's CFG does.
func (f *Func) Dom() *DomTree {
	a := &f.an
	if !a.domOK {
		a.dom.build(f)
		a.domOK = true
		if onAnalysis != nil {
			onAnalysis(false)
		}
	}
	return &a.dom
}

// Loops returns f's loop forest outermost first, in FindLoops's order,
// computed on first use after a CFG change. The slice and its loops are f's:
// callers read them and must not modify them.
func (f *Func) Loops() []*Loop {
	a := &f.an
	if !a.loopsOK {
		a.loops, a.inner = findLoops(f.Dom())
		a.loopsOK = true
		if onAnalysis != nil {
			onAnalysis(true)
		}
	}
	return a.loops
}

// LoopsInnermostFirst returns the loops of f.Loops() with deeper loops
// first. The slice is f's: callers must not modify it.
func (f *Func) LoopsInnermostFirst() []*Loop {
	f.Loops()
	return f.an.inner
}

// InvalidateCFG drops f's cached analyses after an edit of its blocks or
// edges. The tree keeps its slices for the next Dom to reuse.
func (f *Func) InvalidateCFG() {
	a := &f.an
	a.domOK, a.loopsOK = false, false
	a.loops, a.inner = nil, nil
}

// ReleaseAnalyses drops f's cached analyses and their storage, so a finished
// function holds no lazily filled state.
func (f *Func) ReleaseAnalyses() { f.an = analyses{} }

// checkAnalyses reports where f's cached analyses disagree with dom, a
// freshly built tree of f, and the loops found from it.
func (f *Func) checkAnalyses(dom *DomTree) error {
	a := &f.an
	if a.domOK {
		if !slices.Equal(a.dom.rpo, dom.rpo) {
			return fmt.Errorf("%s: cached dominator tree is stale: its reverse postorder differs", f.Name)
		}
		for _, b := range dom.rpo {
			if a.dom.Idom(b) != dom.Idom(b) {
				return fmt.Errorf("%s: cached dominator tree is stale at b%d", f.Name, b.ID)
			}
		}
	}
	if a.loopsOK {
		loops, inner := findLoops(dom)
		if !slices.EqualFunc(a.loops, loops, sameLoop) || !slices.EqualFunc(a.inner, inner, sameLoop) {
			return fmt.Errorf("%s: cached loop forest is stale", f.Name)
		}
	}
	return nil
}

// sameLoop reports whether l and m, found in two runs of FindLoops, describe
// the same loop. Children and Depth follow from every loop's Parent.
func sameLoop(l, m *Loop) bool {
	return l.Header == m.Header && header(l.Parent) == header(m.Parent) &&
		slices.Equal(l.Blocks, m.Blocks) && slices.Equal(l.latches, m.latches) &&
		slices.Equal(l.exits, m.exits)
}

func header(l *Loop) *Block {
	if l == nil {
		return nil
	}
	return l.Header
}

// DomTree holds immediate dominators indexed by block ID.
type DomTree struct {
	// idom and rpo share one backing array, idom's capacity: idom is
	// never appended to, so its capacity reaches the whole array.
	idom []*Block
	rpo  []*Block
	rpoN []int // block ID -> reverse postorder number
}

// BuildDom computes a fresh dominator tree of f. Passes read f.Dom(), the
// tree f caches; Verify and tests build their own.
func BuildDom(f *Func) *DomTree {
	t := &DomTree{}
	t.build(f)
	return t
}

// build computes the dominator tree of f into t, reusing t's slices when
// they are large enough, so rebuilding after a CFG edit that made no block
// allocates nothing.
func (t *DomTree) build(f *Func) {
	maxID := 0
	for _, b := range f.Blocks {
		if b.ID > maxID {
			maxID = b.ID
		}
	}
	n := maxID + 1
	blocks := t.idom[:cap(t.idom)]
	if len(blocks) < n+len(f.Blocks) {
		blocks = make([]*Block, n+len(f.Blocks))
	} else {
		clear(blocks)
	}
	t.idom, t.rpo = blocks[:n], blocks[n:n]
	if cap(t.rpoN) < n {
		t.rpoN = make([]int, n)
	}
	t.rpoN = t.rpoN[:n]
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
	// latches and exits are carved once, when the loop is found.
	latches, exits []*Block
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
// dominates b) and nests them into a forest ordered outermost-first. Passes
// read f.Loops(), the forest f caches; Verify and tests find their own.
func FindLoops(f *Func, dom *DomTree) []*Loop {
	loops, _ := findLoops(dom)
	return loops
}

// findLoops returns the forest FindLoops does and the same loops innermost
// first.
func findLoops(dom *DomTree) (loops, inner []*Loop) {
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
		return nil, nil
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
	// The result, the innermost-first order and every Children list share
	// one array: a loop is the child of at most one loop.
	n := len(found)
	ptrs := make([]*Loop, 3*n)
	loops, inner = ptrs[:n:n], ptrs[n:2*n:2*n]
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
	next := 2 * n
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
	// Innermost first, so values hoisted from an inner loop can cascade
	// outward. The passes' output depends on the order among loops of equal
	// depth, which is this exchange sort's.
	copy(inner, loops)
	for i := range inner {
		for j := i + 1; j < n; j++ {
			if inner[j].Depth > inner[i].Depth {
				inner[i], inner[j] = inner[j], inner[i]
			}
		}
	}
	carveEdges(found)
	return loops, inner
}

// carveEdges fills every loop's latches and exits from one chunk, sized by
// the header's predecessors and the body's successors.
func carveEdges(found []Loop) {
	size := 0
	for k := range found {
		size += len(found[k].Header.Preds)
		for _, b := range found[k].Blocks {
			size += len(b.Succs)
		}
	}
	chunk := make([]*Block, 0, size)
	for k := range found {
		l := &found[k]
		start := len(chunk)
		for _, p := range l.Header.Preds {
			if l.Contains(p) {
				chunk = append(chunk, p)
			}
		}
		l.latches = chunk[start:len(chunk):len(chunk)]
		start = len(chunk)
		for _, b := range l.Blocks {
			for _, s := range b.Succs {
				if !l.Contains(s) && !slices.Contains(chunk[start:], s) {
					chunk = append(chunk, s)
				}
			}
		}
		l.exits = chunk[start:len(chunk):len(chunk)]
	}
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
// inside the loop, ordered by the exiting block's ID. It is the loop's own
// slice: callers read it and must not modify it.
func (l *Loop) Exits() []*Block { return l.exits }

// Latches returns the in-loop predecessors of the header (back-edge
// sources), in predecessor order. It is the loop's own slice: callers read
// it and must not modify it.
func (l *Loop) Latches() []*Block { return l.latches }

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
