package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"nomap/internal/ir"
	"nomap/internal/value"
)

// render maps every value placed in f to its rendering and stack map.
func render(f *ir.Func) map[*ir.Value]string {
	out := map[*ir.Value]string{}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			var sb strings.Builder
			sb.WriteString(v.String())
			for sm := v.Deopt; sm != nil; sm = sm.Caller {
				for _, e := range sm.Entries {
					fmt.Fprintf(&sb, " r%d=v%d", e.Reg, e.Val.ID)
				}
			}
			out[v] = sb.String()
		}
	}
	return out
}

// unchanged fails if a value of was renders differently in f now.
func unchanged(t *testing.T, name string, f *ir.Func, was map[*ir.Value]string) {
	t.Helper()
	now := render(f)
	for v, s := range was {
		if now[v] != s {
			t.Fatalf("%s: v%d was %q, now %q", name, v.ID, s, now[v])
		}
	}
}

// grow adds n values to f, alternating NewValue and InsertValueAt across its
// blocks, and fails if one of them is a value other owns.
func grow(t *testing.T, f *ir.Func, n int, other map[*ir.Value]string) {
	t.Helper()
	for i := range n {
		b := f.Blocks[i%len(f.Blocks)]
		var v *ir.Value
		if i%2 == 0 {
			v = b.NewValue(ir.OpConst, ir.TypeInt32)
		} else {
			v = b.InsertValueAt(0, ir.OpConst, ir.TypeInt32)
		}
		v.AuxVal = value.Int(int32(i))
		if _, theirs := other[v]; theirs {
			t.Fatalf("new v%d reuses a value of the other function", v.ID)
		}
	}
}

// A clone shares no Value with its original: values either function
// creates afterwards come from its own storage, and editing a cloned
// value's arguments or stack map leaves the original as it was.
func TestCloneIsolation(t *testing.T) {
	f, _ := buildHot(t, sumLoopSrc, "sum")
	g, vmap := f.Clone()
	fWas, gWas := render(f), render(g)
	for v, s := range fWas {
		c := vmap[v]
		if _, shared := fWas[c]; shared {
			t.Fatalf("v%d's clone is a value of the original", v.ID)
		}
		if gWas[c] != s {
			t.Fatalf("v%d clones as %q, want %q", v.ID, gWas[c], s)
		}
	}

	// Enough values to fill several chunks on both sides.
	grow(t, g, 1500, fWas)
	unchanged(t, "original after growing the clone", f, fWas)
	grow(t, f, 1500, gWas)
	unchanged(t, "clone after growing the original", g, gWas)

	var withArgs, withMap *ir.Value
	for v := range fWas {
		if len(v.Args) > 0 && withArgs == nil {
			withArgs = v
		}
		if v.Deopt != nil && len(v.Deopt.Entries) > 0 && withMap == nil {
			withMap = v
		}
	}
	if withArgs == nil || withMap == nil {
		t.Fatal("no value with arguments or stack map to edit")
	}
	stray := g.Entry.NewValue(ir.OpConst, ir.TypeInt32)
	vmap[withArgs].Args[0] = stray
	vmap[withMap].Deopt.Entries[0].Val = stray
	unchanged(t, "original after editing the clone", f, fWas)
}
