package nomap

// Property-based differential testing: pseudo-random programs from a small
// generator grammar must produce identical results in the interpreter and
// in the FTL tier under every NoMap configuration. The generator biases
// toward the paper's speculation surface: int32 arithmetic near overflow
// boundaries, array loops, object property accumulation, and mixed-type
// corner cases.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// genProgram builds a deterministic random program from seed. It always
// defines run() and drives it hot enough to reach FTL.
func genProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder

	// Globals: a couple of arrays and an object.
	arrLen := 8 + r.Intn(56)
	fmt.Fprintf(&sb, "var ga = [];\n")
	for i := 0; i < arrLen; i++ {
		switch r.Intn(5) {
		case 0:
			fmt.Fprintf(&sb, "ga[%d] = %d.5;\n", i, r.Intn(100))
		default:
			fmt.Fprintf(&sb, "ga[%d] = %d;\n", i, r.Intn(1<<20)-1<<19)
		}
	}
	fmt.Fprintf(&sb, "var gobj = {acc: 0, scale: %d, bias: %d};\n", 1+r.Intn(5), r.Intn(9))

	// Expression generator over the in-scope int variables.
	vars := []string{"s", "i", "t"}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 {
			switch r.Intn(6) {
			case 0:
				return fmt.Sprintf("%d", r.Intn(2048)-1024)
			case 1:
				return "ga[i % " + fmt.Sprint(arrLen) + "]"
			case 2:
				return "gobj.scale"
			case 3:
				return "gobj.bias"
			default:
				return vars[r.Intn(len(vars))]
			}
		}
		ops := []string{"+", "-", "*", "&", "|", "^", "%"}
		op := ops[r.Intn(len(ops))]
		l, rr := expr(depth-1), expr(depth-1)
		if op == "%" {
			return fmt.Sprintf("((%s) %% (%s | 1))", l, rr) // avoid %0 noise
		}
		return fmt.Sprintf("((%s) %s (%s))", l, op, rr)
	}

	fmt.Fprintf(&sb, "function run(n) {\n  var s = 0, t = %d;\n", r.Intn(100))
	fmt.Fprintf(&sb, "  for (var i = 0; i < n; i++) {\n")
	stmts := 1 + r.Intn(3)
	for k := 0; k < stmts; k++ {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "    s = (s + %s) | 0;\n", expr(2))
		case 1:
			fmt.Fprintf(&sb, "    t = %s;\n", expr(2))
		case 2:
			fmt.Fprintf(&sb, "    gobj.acc = gobj.acc + (%s) %% 1000;\n", expr(1))
		case 3:
			fmt.Fprintf(&sb, "    if ((%s) > 0) { s = s + 1; } else { s = s - 1; }\n", expr(1))
		case 4:
			fmt.Fprintf(&sb, `    switch ((%s) & 3) {
    case 0: s += 3; break;
    case 1: s -= 1;
    case 2: t = (t + 7) | 0; break;
    default: s ^= 5;
    }
`, expr(1))
		default:
			fmt.Fprintf(&sb, "    ga[i %% %d] = (%s) %% 100000;\n", arrLen, expr(1))
		}
	}
	fmt.Fprintf(&sb, "  }\n  return (s + t + gobj.acc) %% 1000000007;\n}\n")
	// gobj.acc and ga mutate across calls, which is fine: every engine
	// executes the identical call sequence from identical initial state.
	return sb.String()
}

func runSeq(t *testing.T, opts Options, src string, calls, n int) []string {
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

// FuzzDifferential is the native fuzzing entry point over the same grammar:
// the fuzzer explores generator seeds, and every generated program must
// behave identically in the interpreter and in full NoMap FTL configurations.
// The committed corpus under testdata/fuzz/FuzzDifferential seeds the search.
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		t.Parallel() // seed-corpus runs only; no effect while fuzzing
		src := genProgram(seed)
		const calls, n = 700, 40
		want := runSeq(t, Options{MaxTier: TierInterp}, src, calls, n)
		for _, arch := range []Arch{ArchNoMap, ArchNoMapBC, ArchNoMapRTM} {
			got := runSeq(t, Options{MaxTier: TierFTL, Arch: arch}, src, calls, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d arch %v call %d: got %q want %q\nprogram:\n%s",
						seed, arch, i, got[i], want[i], src)
				}
			}
		}
	})
}

func TestFuzzDifferential(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			src := genProgram(seed)
			const calls, n = 700, 40
			want := runSeq(t, Options{MaxTier: TierInterp}, src, calls, n)
			for _, arch := range []Arch{ArchBase, ArchNoMap, ArchNoMapBC, ArchNoMapRTM} {
				got := runSeq(t, Options{MaxTier: TierFTL, Arch: arch}, src, calls, n)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("arch %v call %d: got %q want %q\nprogram:\n%s",
							arch, i, got[i], want[i], src)
					}
				}
			}
		})
	}
}
