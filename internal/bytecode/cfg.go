package bytecode

import "fmt"

// Control flow is decoded here and nowhere else: which operand holds a
// jump's target, which ops end a basic block, what counts as a loop back
// edge, and the blocks and edges the fuser and the IR builder read.

// Target returns the pc in jumps to, or -1 when in does not jump. Target
// and SetTarget are the only code that knows which operand holds a target.
func (in *Instr) Target() int {
	switch {
	case in.Op == OpJump:
		return int(in.A)
	case in.Op == OpJumpIfTrue || in.Op == OpJumpIfFalse:
		return int(in.B)
	case in.Op.IsCmpBranch():
		return int(in.C)
	}
	return -1
}

// SetTarget makes the jump in land on pc. It panics if in does not jump.
func (in *Instr) SetTarget(pc int) {
	switch {
	case in.Op == OpJump:
		in.A = int32(pc)
	case in.Op == OpJumpIfTrue || in.Op == OpJumpIfFalse:
		in.B = int32(pc)
	case in.Op.IsCmpBranch():
		in.C = int32(pc)
	default:
		panic(fmt.Sprintf("bytecode: %v has no jump target", in.Op))
	}
}

// EndsBlock reports whether o ends a basic block: a branch or a return.
func (o Op) EndsBlock() bool {
	return o == OpJump || o == OpJumpIfTrue || o == OpJumpIfFalse || o == OpReturn || o.IsCmpBranch()
}

// IsBackEdge reports whether in, at pc, is a loop back edge: an
// unconditional jump to pc or before it. The bytecode tiers count these
// edges into the profile's BackEdgeCount and the machine counts them at the
// IR blocks built from them, so every tier profiles the same loop trips.
func (in *Instr) IsBackEdge(pc int) bool { return in.Op == OpJump && in.Target() <= pc }

// CFG is a function's basic-block graph, computed on demand by NewCFG.
type CFG struct {
	// Blocks lists the basic blocks in pc order.
	Blocks []Block
	// blockOf maps each pc to the index of the block holding it.
	blockOf []int32
}

// Block is one basic block: the instructions [Start, End).
type Block struct {
	Start, End int
	// Succs lists successor block indices in the IR's edge order: a
	// conditional branch lists the successor its condition being true leads
	// to first, so JumpIfFalse, CmpJF and CmpKJF list the fallthrough first.
	Succs []int
	// BackEdge reports that the block ends in a loop back edge.
	BackEdge bool
}

// NewCFG splits fn's code into basic blocks. A block starts at pc 0, at
// every jump target and after every instruction that ends a block.
func NewCFG(fn *Function) *CFG {
	code := fn.Code
	n := len(code)
	g := &CFG{blockOf: make([]int32, n)}
	if n == 0 {
		return g
	}
	// Mark the leaders with 1, counting them.
	nb := 0
	mark := func(pc int) {
		if pc >= 0 && pc < n && g.blockOf[pc] == 0 {
			g.blockOf[pc] = 1
			nb++
		}
	}
	mark(0)
	for pc := range code {
		if code[pc].Op.EndsBlock() {
			mark(code[pc].Target())
			mark(pc + 1)
		}
	}
	// Number the blocks in pc order and give each its range.
	g.Blocks = make([]Block, nb)
	b := -1
	for pc := range code {
		if g.blockOf[pc] == 1 {
			b++
			g.Blocks[b].Start = pc
			if b > 0 {
				g.Blocks[b-1].End = pc
			}
		}
		g.blockOf[pc] = int32(b)
	}
	g.Blocks[b].End = n
	// Wire successors from one arena, at most two per block.
	arena := make([]int, 0, 2*nb)
	for i := range g.Blocks {
		blk := &g.Blocks[i]
		last := code[blk.End-1]
		succ := [2]int{blk.End, last.Target()} // fallthrough first
		switch last.Op {
		case OpReturn:
			succ = [2]int{-1, -1}
		case OpJump:
			succ[0] = -1
		case OpJumpIfTrue, OpCmpJT, OpCmpKJT:
			succ[0], succ[1] = succ[1], succ[0]
		}
		start := len(arena)
		for _, pc := range succ {
			if pc >= 0 && pc < n {
				arena = append(arena, int(g.blockOf[pc]))
			}
		}
		blk.Succs = arena[start:len(arena):len(arena)]
		blk.BackEdge = last.IsBackEdge(blk.End - 1)
	}
	return g
}

// BlockOf returns the index of the block holding pc.
func (g *CFG) BlockOf(pc int) int { return int(g.blockOf[pc]) }

// Leader reports whether a block starts at pc.
func (g *CFG) Leader(pc int) bool { return g.Blocks[g.blockOf[pc]].Start == pc }

// Reachable reports, per block index, whether control flows there from
// block from (which reaches itself).
func (g *CFG) Reachable(from int) []bool {
	reach := make([]bool, len(g.Blocks))
	reach[from] = true
	work := []int{from}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Blocks[b].Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	return reach
}
