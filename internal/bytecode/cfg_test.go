package bytecode

import (
	"fmt"
	"strings"
	"testing"

	"nomap/internal/value"
)

// render prints g's blocks as "[start,end)->succs", with "*" marking a back
// edge, and the blocks reachable from block from.
func render(g *CFG, from int) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "[%d,%d)->%v", b.Start, b.End, b.Succs)
		if b.BackEdge {
			sb.WriteString("*")
		}
		sb.WriteString(" ")
	}
	sb.WriteString("reach")
	for i, r := range g.Reachable(from) {
		if r {
			fmt.Fprintf(&sb, " %d", i)
		}
	}
	return sb.String()
}

func TestCFG(t *testing.T) {
	branchTo2 := func(op Op) []Instr {
		br := Instr{Op: op, A: 0, B: 0, D: int32(OpLess)}
		br.SetTarget(2)
		return []Instr{br, {Op: OpReturn}, {Op: OpReturn}}
	}
	rows := []struct {
		name string
		code []Instr
		from int // the pc the reachability walk starts from
		want string
	}{
		{"backward jump", []Instr{
			{Op: OpLoadUndef, A: 0},  // 0
			{Op: OpMove, A: 1, B: 0}, // 1 <- loop
			{Op: OpJump, A: 1},       // 2: back edge
			{Op: OpReturn, A: 1},     // 3: dead
		}, 0, "[0,1)->[1] [1,3)->[1]* [3,4)->[] reach 0 1"},
		{"self loop", []Instr{
			{Op: OpJump, A: 0},   // 0: back edge to itself
			{Op: OpReturn, A: 0}, // 1
		}, 0, "[0,1)->[0]* [1,2)->[] reach 0"},
		{"forward jump", []Instr{
			{Op: OpJump, A: 2}, // 0: not a back edge
			{Op: OpReturn},     // 1: dead
			{Op: OpReturn},     // 2
		}, 0, "[0,1)->[2] [1,2)->[] [2,3)->[] reach 0 2"},
		// Conditional branches list the successor their condition being
		// true leads to first.
		{"jt", branchTo2(OpJumpIfTrue), 0, "[0,1)->[2 1] [1,2)->[] [2,3)->[] reach 0 1 2"},
		{"jf", branchTo2(OpJumpIfFalse), 0, "[0,1)->[1 2] [1,2)->[] [2,3)->[] reach 0 1 2"},
		{"cmpjt", branchTo2(OpCmpJT), 0, "[0,1)->[2 1] [1,2)->[] [2,3)->[] reach 0 1 2"},
		{"cmpjf", branchTo2(OpCmpJF), 0, "[0,1)->[1 2] [1,2)->[] [2,3)->[] reach 0 1 2"},
		{"cmpkjt", branchTo2(OpCmpKJT), 0, "[0,1)->[2 1] [1,2)->[] [2,3)->[] reach 0 1 2"},
		{"cmpkjf", branchTo2(OpCmpKJF), 0, "[0,1)->[1 2] [1,2)->[] [2,3)->[] reach 0 1 2"},
		// A backward conditional branch closes a loop but is not a back
		// edge: only unconditional jumps are.
		{"backward cmpkjf", []Instr{
			{Op: OpLoadUndef, A: 0},                            // 0 <- loop
			{Op: OpCmpKJF, A: 0, B: 0, C: 0, D: int32(OpLess)}, // 1
			{Op: OpReturn, A: 0},                               // 2
		}, 0, "[0,2)->[1 0] [2,3)->[] reach 0 1"},
		{"dead code after return", []Instr{
			{Op: OpReturn, A: 0},    // 0
			{Op: OpLoadUndef, A: 0}, // 1: dead
			{Op: OpReturn, A: 0},    // 2
		}, 0, "[0,1)->[] [1,3)->[] reach 0"},
		// TestNoFuseAcrossJumpTarget's function: the ldc/add pair straddles
		// the block boundary at the jump target.
		{"jump into a would-be pattern", []Instr{
			{Op: OpLoadConst, A: 2, B: 0},  // 0: ldc r2, #1
			{Op: OpAdd, A: 3, B: 0, C: 2},  // 1: add r3, r0, r2   <- jump target
			{Op: OpMove, A: 1, B: 3},       // 2: mov r1, r3
			{Op: OpJumpIfTrue, A: 1, B: 1}, // 3: jt r1, @1
			{Op: OpReturn, A: 1},           // 4: ret r1
		}, 0, "[0,1)->[1] [1,4)->[1 2] [4,5)->[] reach 0 1 2"},
		// An OSR build enters at the loop header: the code before the loop
		// is unreachable from it.
		{"OSR header", []Instr{
			{Op: OpLoadUndef, A: 0},         // 0: pre-loop
			{Op: OpJumpIfFalse, A: 0, B: 4}, // 1: header
			{Op: OpMove, A: 0, B: 0},        // 2
			{Op: OpJump, A: 1},              // 3: back edge
			{Op: OpReturn, A: 0},            // 4
		}, 1, "[0,1)->[1] [1,2)->[2 3] [2,4)->[1]* [4,5)->[] reach 1 2 3"},
	}
	for _, r := range rows {
		fn := &Function{Name: r.name, NumRegs: 4, Consts: []value.Value{value.Int(1)}, Code: r.code}
		g := NewCFG(fn)
		if got := render(g, g.BlockOf(r.from)); got != r.want {
			t.Errorf("%s:\n got %s\nwant %s", r.name, got, r.want)
		}
		for pc := range r.code {
			b := g.Blocks[g.BlockOf(pc)]
			if pc < b.Start || pc >= b.End || g.Leader(pc) != (pc == b.Start) {
				t.Errorf("%s: pc %d maps to block [%d,%d), leader=%v", r.name, pc, b.Start, b.End, g.Leader(pc))
			}
		}
	}
}

// Target and SetTarget read and write the operand each jump kind keeps its
// target in, and nothing else.
func TestJumpTargetOperand(t *testing.T) {
	for _, c := range []struct {
		op      Op
		operand func(Instr) int32
	}{
		{OpJump, func(in Instr) int32 { return in.A }},
		{OpJumpIfTrue, func(in Instr) int32 { return in.B }},
		{OpJumpIfFalse, func(in Instr) int32 { return in.B }},
		{OpCmpJF, func(in Instr) int32 { return in.C }},
		{OpCmpJT, func(in Instr) int32 { return in.C }},
		{OpCmpKJF, func(in Instr) int32 { return in.C }},
		{OpCmpKJT, func(in Instr) int32 { return in.C }},
	} {
		in := Instr{Op: c.op, A: 1, B: 2, C: 3, D: 4, E: 5}
		before := in
		in.SetTarget(9)
		if in.Target() != 9 || c.operand(in) != 9 {
			t.Errorf("%v: SetTarget(9) gives Target %d, operand %d", c.op, in.Target(), c.operand(in))
		}
		in.SetTarget(int(c.operand(before)))
		if in != before {
			t.Errorf("%v: SetTarget wrote outside the target operand: %+v, want %+v", c.op, in, before)
		}
		if !c.op.EndsBlock() {
			t.Errorf("%v does not end a block", c.op)
		}
	}
	ret, add := Instr{Op: OpReturn}, Instr{Op: OpAdd, A: 1}
	if ret.Target() != -1 || !OpReturn.EndsBlock() || add.Target() != -1 || OpAdd.EndsBlock() {
		t.Error("a return or an add has a jump target or a non-return ends a block")
	}
	for _, c := range []struct {
		in   Instr
		pc   int
		want bool
	}{
		{Instr{Op: OpJump, A: 4}, 5, true},
		{Instr{Op: OpJump, A: 5}, 5, true},
		{Instr{Op: OpJump, A: 6}, 5, false},
		{Instr{Op: OpJumpIfTrue, B: 4}, 5, false},
		{Instr{Op: OpCmpKJF, C: 4}, 5, false},
	} {
		if got := c.in.IsBackEdge(c.pc); got != c.want {
			t.Errorf("%v at %d: IsBackEdge = %v, want %v", c.in, c.pc, got, c.want)
		}
	}
}
