package nomap

// Shape-transition differential fuzzing: pseudo-random programs whose object
// populations span the whole inline-cache spectrum — monomorphic sites,
// polymorphic sites up to the dispatch-way limit, megamorphic sites past it,
// and mid-loop property adds that exercise transition speculation — must
// behave identically in the interpreter and in the tiered configurations,
// with the IC subsystem on and off.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// genShapeProgram builds a deterministic random shape-transition program
// from seed. It creates a receiver population of 1..10 distinct hidden
// classes (distinct property-insertion orders), each carrying a method slot
// bound to one of a few small callees, and a run(n) loop mixing method
// dispatch, polymorphic property reads/writes, and speculated property adds.
func genShapeProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder

	// Callee pool: every method is a pure function of its argument, so a
	// wrong-way dispatch is observable in the sum.
	callees := 2 + r.Intn(3)
	for c := 0; c < callees; c++ {
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "function m%d(x) { return (x + %d) | 0; }\n", c, 1+r.Intn(9))
		case 1:
			fmt.Fprintf(&sb, "function m%d(x) { return (x * %d) | 0; }\n", c, 3+r.Intn(5))
		case 2:
			fmt.Fprintf(&sb, "function m%d(x) { return (x ^ %d) & 255; }\n", c, r.Intn(64))
		default:
			fmt.Fprintf(&sb, "function m%d(x) { return (x + x + %d) | 0; }\n", c, r.Intn(7))
		}
	}

	// Receiver population: shapes gets a distinct hidden class per family by
	// prefixing f distinct padding properties before the common ones. 1 shape
	// is a monomorphic site, 2..8 polymorphic, 9..10 megamorphic.
	shapes := 1 + r.Intn(10)
	size := 16 + 8*r.Intn(5)
	fmt.Fprintf(&sb, "var R = new Array(%d);\n", size)
	fmt.Fprintf(&sb, "for (var i = 0; i < %d; i++) {\n", size)
	for fam := 0; fam < shapes; fam++ {
		cond := fmt.Sprintf("if (i %% %d == %d) ", shapes, fam)
		if fam == shapes-1 {
			cond = ""
		}
		var pads strings.Builder
		for p := 0; p <= fam; p++ {
			fmt.Fprintf(&pads, "p%d: %d, ", p, p)
		}
		fmt.Fprintf(&sb, "  %sR[i] = {%sv: i, m: m%d};\n", cond, pads.String(), r.Intn(callees))
		if fam == shapes-1 {
			break
		}
		sb.WriteString("  else ")
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")

	// Fresh-object factory for transition speculation: insertion order
	// alternates, and the hot loop adds a property the factory never set.
	fmt.Fprintf(&sb, "function mk(i) {\n")
	fmt.Fprintf(&sb, "  if ((i & 1) == 0) return {a: i, b: %d};\n", r.Intn(16))
	fmt.Fprintf(&sb, "  return {b: %d, a: i};\n}\n", r.Intn(16))

	fmt.Fprintf(&sb, "function run(n) {\n  var s = 0;\n")
	fmt.Fprintf(&sb, "  for (var i = 0; i < n; i++) {\n")
	fmt.Fprintf(&sb, "    var o = R[i %% %d];\n", size)
	stmts := 1 + r.Intn(3)
	for k := 0; k < stmts; k++ {
		switch r.Intn(5) {
		case 0:
			fmt.Fprintf(&sb, "    s = (s + o.m(i & %d)) | 0;\n", 7+8*r.Intn(4))
		case 1:
			fmt.Fprintf(&sb, "    s = (s + o.v) | 0;\n")
		case 2:
			fmt.Fprintf(&sb, "    o.v = (o.v + %d) %% 100000;\n", 1+r.Intn(5))
		default:
			fmt.Fprintf(&sb, "    var t = mk(i);\n    t.c = i & %d;\n    s = (s + t.a + t.c) | 0;\n", 15+16*r.Intn(3))
		}
	}
	sb.WriteString("  }\n  return s;\n}\n")
	// o.v mutates across calls, which is fine: every engine executes the
	// identical call sequence from identical initial state.
	return sb.String()
}

// shapeSeq runs src's call protocol on one engine configuration.
func shapeSeq(t *testing.T, opts Options, src string, calls, n int) []string {
	t.Helper()
	eng := NewEngine(opts)
	if _, err := eng.Run(src); err != nil {
		t.Fatalf("setup: %v\n%s", err, src)
	}
	out := make([]string, calls)
	for i := 0; i < calls; i++ {
		v, err := eng.Call("run", n)
		if err != nil {
			t.Fatalf("call %d: %v\n%s", i, err, src)
		}
		out[i] = v.ToStringValue()
	}
	return out
}

// FuzzShapes is the native fuzzing entry point over the shape grammar: every
// generated program must behave identically in the interpreter and in the
// tiered NoMap configurations — and under ArchNoMap additionally with the
// inline-cache subsystem disabled, so a divergence attributable to dispatch
// trees alone cannot hide behind generic-path agreement. The committed
// corpus under testdata/fuzz/FuzzShapes seeds the search.
func FuzzShapes(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		t.Parallel() // seed-corpus runs only; no effect while fuzzing
		src := genShapeProgram(seed)
		const calls, n = 700, 48
		want := shapeSeq(t, Options{MaxTier: TierInterp}, src, calls, n)
		check := func(label string, got []string) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s call %d: got %q want %q\nprogram:\n%s",
						seed, label, i, got[i], want[i], src)
				}
			}
		}
		for _, arch := range []Arch{ArchNoMap, ArchNoMapBC, ArchNoMapRTM} {
			check(arch.String(), shapeSeq(t, Options{MaxTier: TierFTL, Arch: arch}, src, calls, n))
		}
		check("NoMap ic-off", shapeSeq(t, Options{MaxTier: TierFTL, Arch: ArchNoMap, DisableIC: true}, src, calls, n))
	})
}

func TestFuzzShapes(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			src := genShapeProgram(seed)
			const calls, n = 700, 48
			want := shapeSeq(t, Options{MaxTier: TierInterp}, src, calls, n)
			for _, arch := range []Arch{ArchBase, ArchNoMap, ArchNoMapBC, ArchNoMapRTM} {
				got := shapeSeq(t, Options{MaxTier: TierFTL, Arch: arch}, src, calls, n)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("arch %v call %d: got %q want %q\nprogram:\n%s",
							arch, i, got[i], want[i], src)
					}
				}
			}
			got := shapeSeq(t, Options{MaxTier: TierFTL, Arch: ArchNoMap, DisableIC: true}, src, calls, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ic-off call %d: got %q want %q\nprogram:\n%s", i, got[i], want[i], src)
				}
			}
		})
	}
}
