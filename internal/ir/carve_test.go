package ir_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// wideSrc is a loop whose body repeats an array, a property, an int32 and a
// double statement group width times, warmed by 30 calls.
func wideSrc(width int) string {
	var body strings.Builder
	for i := range width {
		fmt.Fprintf(&body, "    A[i] = (A[i] + %d + x) & 1023;\n", i)
		fmt.Fprintf(&body, "    o.a = (o.a + o.b + i) & 65535; o.c = o.c ^ (o.a + %d);\n", i)
		fmt.Fprintf(&body, "    s = s + i * %d + x; s = s - (s >> 4);\n", i+1)
		fmt.Fprintf(&body, "    d = d * 0.75 + i * %d.25;\n", i)
	}
	return fmt.Sprintf(`var A = [];
for (var j = 0; j < 16; j++) A[j] = j;
var O = {a: 1, b: 2, c: 0};
function wide(x) {
  var o = O, s = 0, d = 0.5;
  for (var i = 0; i < 8; i++) {
%s  }
  return s + o.c + d;
}
for (var c = 0; c < 30; c++) wide(c & 7);
`, body.String())
}

// warm runs src in the Baseline tier and returns the bytecode and profile
// of its global function fname.
func warm(tb testing.TB, src, fname string) (*bytecode.Function, *profile.FunctionProfile) {
	tb.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	m := vm.New(cfg)
	if _, err := m.Run(src); err != nil {
		tb.Fatalf("warmup: %v", err)
	}
	bc := m.Globals().Get(fname).Object().Fn.Code.(*bytecode.Function)
	return bc, m.ProfileFor(bc)
}

// ir.Build takes values, operands, edges, blocks, stack maps and its own
// state from chunks, so its allocation count grows with the number of
// chunks, not of values: a full chunk holds at least 128 entries, and a
// function four times as wide may allocate at most once more per 64 more
// values (per-value storage would allocate several times per value).
func TestBuildAllocsFlatInWidth(t *testing.T) {
	allocs := func(width int) (float64, int) {
		bc, prof := warm(t, wideSrc(width), "wide")
		f, err := ir.Build(bc, prof)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { ir.Build(bc, prof) }), f.NumValues()
	}
	narrow, nv := allocs(4)
	wide, wv := allocs(16)
	t.Logf("ir.Build allocations: %v at %d values, %v at %d values", narrow, nv, wide, wv)
	if limit := narrow + float64(wv-nv)/64; wide > limit {
		t.Errorf("ir.Build allocates %v at %d values but %v at %d values, over %v: allocations grow with value count", narrow, nv, wide, wv, limit)
	}
}

const carveSrc = `
function helper(a, b) { return a * 2 + b; }
function carve(arr, n, o) {
  var s = 0, t = 1;
  for (var i = 0; i < n; i++) {
    if (arr[i] > 3) { s = s + arr[i]; } else { t = t + helper(i, s); }
    o.p = o.p + s;
  }
  return s + t + o.p;
}
var arr = [];
for (var j = 0; j < 20; j++) arr[j] = j;
var O = {p: 0};
for (var k = 0; k < 40; k++) carve(arr, 20, O);
`

// Every operand list, phi operand list and edge list the builder carves from
// a shared chunk is capped at its length, so appending to one copies instead
// of writing into the next slice carved after it; after inlining, which
// carves too, appending to any of them still leaves every other one as it
// was. This mirrors TestSnapshotAmortisesToZeroAllocs for stack-map entries.
func TestCarvedSlicesAreCapped(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	m := vm.New(cfg)
	if _, err := m.Run(carveSrc); err != nil {
		t.Fatal(err)
	}
	bc := m.Globals().Get("carve").Object().Fn.Code.(*bytecode.Function)
	build := func() *ir.Func {
		f, err := ir.Build(bc, m.ProfileFor(bc))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	built, inlined := build(), build()
	if ir.InlineCalls(inlined, ir.DefaultInlineOptions(m.ProfileFor)) == 0 {
		t.Fatal("nothing inlined: the test needs an inlined call")
	}
	for _, f := range []*ir.Func{built, inlined} {
		// Edges the inliner adds to blocks it did not carve grow as usual,
		// with spare capacity of their own.
		capped := f == built
		var phis, args, edges int
		type slot struct {
			name string
			s    []*ir.Value
		}
		var vals []slot
		var blks [][]*ir.Block
		for _, b := range f.Blocks {
			for _, v := range b.Values {
				if len(v.Args) == 0 {
					continue
				}
				args++
				if v.Op == ir.OpPhi {
					phis++
				}
				if capped && cap(v.Args) != len(v.Args) {
					t.Errorf("%s: v%d (%s) has %d operands but capacity %d", f.Name, v.ID, v.Op, len(v.Args), cap(v.Args))
				}
				vals = append(vals, slot{fmt.Sprintf("v%d args", v.ID), v.Args})
			}
			for _, es := range [][]*ir.Block{b.Preds, b.Succs} {
				if len(es) == 0 {
					continue
				}
				edges++
				if capped && cap(es) != len(es) {
					t.Errorf("%s: b%d has an edge list of %d with capacity %d", f.Name, b.ID, len(es), cap(es))
				}
				blks = append(blks, es)
			}
		}
		if phis == 0 || args == 0 || edges == 0 {
			t.Fatalf("%s: %d phis, %d operand lists, %d edge lists: the test needs all three", f.Name, phis, args, edges)
		}
		// Copies to compare against after every append.
		wantVals := make([][]*ir.Value, len(vals))
		for i, s := range vals {
			wantVals[i] = slices.Clone(s.s)
		}
		wantBlks := make([][]*ir.Block, len(blks))
		for i, s := range blks {
			wantBlks[i] = slices.Clone(s)
		}
		for _, s := range vals {
			_ = append(s.s, nil)
		}
		for _, s := range blks {
			_ = append(s, nil)
		}
		for i, s := range vals {
			if !slices.Equal(s.s, wantVals[i]) {
				t.Errorf("%s: appending to a neighbour changed %s", f.Name, s.name)
			}
		}
		for i, s := range blks {
			if !slices.Equal(s, wantBlks[i]) {
				t.Errorf("%s: appending to a neighbour changed edge list %d", f.Name, i)
			}
		}
		if err := ir.Verify(f); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

// BenchmarkIRBuild measures ir.Build of a wide function alone. Run it with
// -benchmem; TestBuildAllocsFlatInWidth is the allocation gate.
func BenchmarkIRBuild(b *testing.B) {
	bc, prof := warm(b, wideSrc(16), "wide")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ir.Build(bc, prof); err != nil {
			b.Fatal(err)
		}
	}
}
