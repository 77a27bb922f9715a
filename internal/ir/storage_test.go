package ir

import (
	"testing"

	"nomap/internal/bytecode"
)

// snapshot carves its map and entries from the build's chunks, so once the
// chunks amortise a snapshot allocates nothing of its own. Its entries are
// capped at their length, so a later append copies instead of writing into
// the next map's entries.
func TestSnapshotAmortisesToZeroAllocs(t *testing.T) {
	const regs = 24
	bc := &bytecode.Function{Name: "wide", NumRegs: regs}
	b := &builder{bc: bc, f: NewFunc(bc.Name, bc), blocks: []blockState{{defs: map[int]*Value{}}}}
	b.cur = b.f.NewBlock()
	for r := range regs {
		b.blocks[b.cur.ID].defs[r] = b.cur.NewValue(OpConst, TypeGeneric)
	}
	if n := testing.AllocsPerRun(1000, func() { b.snapshot() }); n != 0 {
		t.Errorf("snapshot allocates %v per call, want 0", n)
	}
	x, y := b.snapshot(), b.snapshot()
	for _, sm := range []*StackMap{x, y} {
		if len(sm.Entries) != regs || cap(sm.Entries) != regs {
			t.Fatalf("snapshot entries len %d cap %d, want %d and %d", len(sm.Entries), cap(sm.Entries), regs, regs)
		}
	}
	want := y.Entries[0]
	_ = append(x.Entries, StackMapEntry{Reg: -1})
	if y.Entries[0] != want {
		t.Errorf("appending to one map's entries overwrote the next map's")
	}
}
