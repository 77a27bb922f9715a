package ir

import (
	"slices"
	"testing"
)

// Synthetic CFG tests for dominators and loop discovery (the builder tests
// cover compiled shapes; these cover hand-built corner cases).

// diamond: e -> a -> {b, c} -> d
func buildDiamond() (*Func, *Block, *Block, *Block, *Block) {
	f := NewFunc("diamond", nil)
	a := f.NewBlock()
	b := f.NewBlock()
	c := f.NewBlock()
	d := f.NewBlock()
	f.Entry = a
	a.Kind = BlockIf
	cond := a.NewValue(OpConst, TypeBool)
	a.Control = cond
	AddEdge(a, b)
	AddEdge(a, c)
	AddEdge(b, d)
	AddEdge(c, d)
	d.Kind = BlockReturn
	d.Control = cond
	return f, a, b, c, d
}

func TestDominatorsDiamond(t *testing.T) {
	f, a, b, c, d := buildDiamond()
	dom := BuildDom(f)
	if dom.Idom(d) != a {
		t.Errorf("idom(d) = b%d, want a", dom.Idom(d).ID)
	}
	if !dom.Dominates(a, d) || !dom.Dominates(a, b) || !dom.Dominates(a, c) {
		t.Error("a must dominate everything")
	}
	if dom.Dominates(b, d) || dom.Dominates(c, d) {
		t.Error("neither branch dominates the merge")
	}
	if !dom.Dominates(d, d) {
		t.Error("dominance is reflexive")
	}
	if len(FindLoops(f, dom)) != 0 {
		t.Error("diamond has no loops")
	}
}

// loop: e -> pre -> h <-> body, h -> exit
func buildLoop() (*Func, *Block, *Block, *Block, *Block) {
	f := NewFunc("loop", nil)
	pre := f.NewBlock()
	h := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	f.Entry = pre
	pre.Kind = BlockPlain
	AddEdge(pre, h)
	h.Kind = BlockIf
	cond := h.NewValue(OpConst, TypeBool)
	h.Control = cond
	AddEdge(h, body)
	AddEdge(h, exit)
	body.Kind = BlockPlain
	AddEdge(body, h)
	exit.Kind = BlockReturn
	exit.Control = cond
	return f, pre, h, body, exit
}

func TestLoopDiscovery(t *testing.T) {
	f, pre, h, body, exit := buildLoop()
	dom := BuildDom(f)
	loops := FindLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("found %d loops", len(loops))
	}
	l := loops[0]
	if l.Header != h {
		t.Errorf("header = b%d", l.Header.ID)
	}
	if !l.Contains(body) || !l.Contains(h) {
		t.Error("loop must contain header and body")
	}
	if l.Contains(pre) || l.Contains(exit) {
		t.Error("loop must not contain preheader or exit")
	}
	if l.Preheader() != pre {
		t.Error("wrong preheader")
	}
	if got := l.Latches(); len(got) != 1 || got[0] != body {
		t.Errorf("latches = %v", got)
	}
	if got := l.Exits(); len(got) != 1 || got[0] != exit {
		t.Errorf("exits = %v", got)
	}
	if l.Depth != 1 || l.Parent != nil {
		t.Error("top-level loop nesting wrong")
	}
}

func TestUnreachableBlockTolerated(t *testing.T) {
	f, _, _, _, _ := buildDiamond()
	dead := f.NewBlock()
	dead.Kind = BlockReturn
	dead.Control = f.Entry.Control
	dom := BuildDom(f)
	if dom.Reachable(dead) {
		t.Error("dead block must be unreachable")
	}
	// Dominance queries against unreachable blocks must not loop forever.
	if dom.Dominates(f.Entry, dead) {
		t.Error("entry does not dominate an unreachable block")
	}
}

func TestResolveEntryStatePhiProjection(t *testing.T) {
	_, pre, h, body, _ := buildLoop()
	init := pre.NewValue(OpConst, TypeInt32)
	step := body.NewValue(OpConst, TypeInt32)
	phi := h.InsertValueAt(0, OpPhi, TypeInt32)
	// Preds order: pre (added first), body.
	phi.Args = []*Value{init, step}
	h.EntryState = &StackMap{PC: 5, Entries: []StackMapEntry{{Reg: 0, Val: phi}, {Reg: 1, Val: init}}}

	sm := ResolveEntryState(h, pre)
	if sm.PC != 5 {
		t.Errorf("PC = %d", sm.PC)
	}
	if sm.Entries[0].Val != init {
		t.Error("phi must project to the preheader argument")
	}
	if sm.Entries[1].Val != init {
		t.Error("non-phi entries pass through")
	}
	sm2 := ResolveEntryState(h, body)
	if sm2.Entries[0].Val != step {
		t.Error("phi must project to the latch argument on the latch edge")
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	// Phi with wrong arity.
	f, _, h, _, _ := buildLoop()
	_ = f
	phi := h.InsertValueAt(0, OpPhi, TypeInt32)
	phi.Args = []*Value{h.Control} // 1 arg, 2 preds
	if err := Verify(f); err == nil {
		t.Error("verifier must reject wrong phi arity")
	}

	// Use before def within a block.
	g := NewFunc("bad", nil)
	b := g.NewBlock()
	g.Entry = b
	b.Kind = BlockReturn
	x := b.NewValue(OpAddInt, TypeInt32) // placeholder, args patched below
	y := b.NewValue(OpConst, TypeInt32)
	x.Args = []*Value{y, y} // x uses later y
	b.Control = x
	if err := Verify(g); err == nil {
		t.Error("verifier must reject use-before-def")
	}
}

// FindLoops on two nested loops and a second top-level loop, with blocks
// created out of control-flow order so ID order and RPO differ:
//
//	e -> h1; h1 -> {b1, x}; b1 -> h2; h2 -> {in, b3}; in -> h2
//	b3 -> {h1, y}; x -> h3; y -> h3; h3 -> {l3, r}; l3 -> h3
//
// The outer loop {h1, b1, h2, in, b3} exits to x and y; the inner loop is
// {h2, in}; {h3, l3} is a second top-level loop.
func TestFindLoopsNestingAndExits(t *testing.T) {
	f := NewFunc("nest", nil)
	r := f.NewBlock()
	l3 := f.NewBlock()
	b3 := f.NewBlock()
	in := f.NewBlock()
	e := f.NewBlock()
	h2 := f.NewBlock()
	y := f.NewBlock()
	b1 := f.NewBlock()
	h3 := f.NewBlock()
	x := f.NewBlock()
	h1 := f.NewBlock()
	f.Entry = e
	cond := e.NewValue(OpConst, TypeBool)
	for _, edge := range [][2]*Block{
		{e, h1}, {h1, b1}, {h1, x}, {b1, h2}, {h2, in}, {h2, b3}, {in, h2},
		{b3, h1}, {b3, y}, {x, h3}, {y, h3}, {h3, l3}, {h3, r}, {l3, h3},
	} {
		AddEdge(edge[0], edge[1])
	}
	for _, b := range f.Blocks {
		b.Kind = [...]BlockKind{BlockReturn, BlockPlain, BlockIf}[len(b.Succs)]
		if b.Kind != BlockPlain {
			b.Control = cond
		}
	}
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	loops := FindLoops(f, BuildDom(f))
	if len(loops) != 3 {
		t.Fatalf("found %d loops, want 3", len(loops))
	}
	ids := func(bs []*Block) []int {
		var out []int
		for _, b := range bs {
			out = append(out, b.ID)
		}
		return out
	}
	sorted := func(bs ...*Block) []int {
		out := ids(bs)
		slices.Sort(out)
		return out
	}
	// Loops come in the reverse postorder of their first back edge: the
	// outer loop's b3 -> h1 precedes l3 -> h3, which precedes in -> h2.
	outer, third, inner := loops[0], loops[1], loops[2]
	for _, c := range []struct {
		name           string
		l              *Loop
		header         *Block
		body           []int
		parent         *Loop
		children       []*Loop
		depth          int
		exits, latches []*Block
		pre            *Block
	}{
		{"outer", outer, h1, sorted(h1, b1, h2, in, b3), nil, []*Loop{inner}, 1, []*Block{y, x}, []*Block{b3}, e},
		{"inner", inner, h2, sorted(h2, in), outer, nil, 2, []*Block{b3}, []*Block{in}, b1},
		{"third", third, h3, sorted(h3, l3), nil, nil, 1, []*Block{r}, []*Block{l3}, nil},
	} {
		l := c.l
		if l.Header != c.header {
			t.Errorf("%s: header b%d, want b%d", c.name, l.Header.ID, c.header.ID)
		}
		if got := ids(l.BlockList()); !slices.Equal(got, c.body) {
			t.Errorf("%s: BlockList %v, want %v", c.name, got, c.body)
		}
		if got := ids(l.Blocks); !slices.Equal(got, c.body) {
			t.Errorf("%s: Blocks %v, want %v", c.name, got, c.body)
		}
		for _, b := range f.Blocks {
			if want := slices.Contains(c.body, b.ID); l.Contains(b) != want {
				t.Errorf("%s: Contains(b%d) = %v", c.name, b.ID, !want)
			}
		}
		if l.Parent != c.parent || !slices.Equal(l.Children, c.children) || l.Depth != c.depth {
			t.Errorf("%s: parent %p children %v depth %d, want %p %v %d", c.name, l.Parent, l.Children, l.Depth, c.parent, c.children, c.depth)
		}
		if got := l.Exits(); !slices.Equal(got, c.exits) {
			t.Errorf("%s: exits %v, want %v", c.name, ids(got), ids(c.exits))
		}
		if got := l.Latches(); !slices.Equal(got, c.latches) {
			t.Errorf("%s: latches %v, want %v", c.name, ids(got), ids(c.latches))
		}
		if got := l.Preheader(); got != c.pre {
			t.Errorf("%s: preheader %v, want %v", c.name, got, c.pre)
		}
	}
	// A block made after FindLoops belongs to no loop.
	if late := f.NewBlock(); outer.Contains(late) || inner.Contains(late) || third.Contains(late) {
		t.Errorf("a block made after FindLoops is in a loop")
	}
}
