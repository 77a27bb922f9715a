package ftl_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ftl"
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// warmFn compiles src, runs it at Baseline to gather profiles, and returns
// the bytecode + profile of global fname.
func warmFn(t *testing.T, src, fname string) (*bytecode.Function, *profile.FunctionProfile) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	v := vm.New(cfg)
	if _, err := v.Run(src); err != nil {
		t.Fatalf("warmup: %v\n%s", err, src)
	}
	fv := v.Globals().Get(fname)
	if !fv.IsCallable() {
		t.Fatalf("%q is not callable", fname)
	}
	bcFn := fv.Object().Fn.Code.(*bytecode.Function)
	return bcFn, v.ProfileFor(bcFn)
}

// Every option combination must produce verifiable IR.
func TestPipelineOptionMatrix(t *testing.T) {
	src := `
var data = [];
for (var i = 0; i < 48; i++) data[i] = i * 2;
var obj = {total: 0, weight: 3};
function run(n) {
  obj.total = 0;
  for (var i = 0; i < n; i++) {
    obj.total += data[i] * obj.weight;
  }
  return obj.total;
}
for (var k = 0; k < 40; k++) run(48);
var result = run(48);
`
	bcFn, prof := warmFn(t, src, "run")
	levels := []core.TxLevel{core.TxLoopNest, core.TxInnermost, core.TxTiled, core.TxOff}
	for _, txOn := range []bool{false, true} {
		for _, level := range levels {
			for _, bounds := range []bool{false, true} {
				for _, overflow := range []bool{false, true} {
					for _, all := range []bool{false, true} {
						opts := ftl.Options{
							Transactions:   txOn,
							TxLevel:        level,
							CombineBounds:  bounds,
							RemoveOverflow: overflow,
							RemoveAll:      all,
						}
						f, err := ftl.Compile(bcFn, prof, opts)
						if err != nil {
							t.Fatalf("%+v: %v", opts, err)
						}
						if err := ir.Verify(f); err != nil {
							t.Fatalf("%+v: verify: %v\n%s", opts, err, f)
						}
					}
				}
			}
		}
	}
}

// Random programs through the full FTL pipeline must always verify, for
// every architecture option set, and so must the DFG tier's; each compiles
// at the invocation entry and as an OSR artifact at every loop header.
func TestPipelineFuzzVerify(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := genLoopProgram(r)
		bcFn, prof := warmFn(t, src, "run")
		entries := []int{-1}
		for _, b := range bytecode.NewCFG(bcFn).Blocks {
			if b.BackEdge {
				entries = append(entries, bcFn.Code[b.End-1].Target())
			}
		}
		if len(entries) == 1 {
			t.Fatalf("seed %d: no loop header\n%s", seed, src)
		}
		for _, entry := range entries {
			for _, opts := range []ftl.Options{
				{},
				{Transactions: true, TxLevel: core.TxLoopNest},
				{Transactions: true, TxLevel: core.TxTiled, CombineBounds: true},
				{Transactions: true, TxLevel: core.TxLoopNest, CombineBounds: true, RemoveOverflow: true},
				{Transactions: true, TxLevel: core.TxLoopNest, RemoveAll: true},
			} {
				opts.OSR, opts.OSREntryPC = entry >= 0, entry
				f, err := ftl.Compile(bcFn, prof, opts)
				if err != nil {
					t.Fatalf("seed %d %+v: %v\n%s", seed, opts, err, src)
				}
				if err := ir.Verify(f); err != nil {
					t.Fatalf("seed %d %+v: %v\nprogram:\n%s\nIR:\n%s", seed, opts, err, src, f)
				}
			}
			g, err := ftl.CompileDFG(bcFn, prof, ftl.Options{OSR: entry >= 0, OSREntryPC: entry})
			if err != nil {
				t.Fatalf("seed %d dfg entry %d: %v", seed, entry, err)
			}
			if err := ir.Verify(g); err != nil {
				t.Fatalf("seed %d dfg entry %d verify: %v", seed, entry, err)
			}
		}
	}
}

func genLoopProgram(r *rand.Rand) string {
	var sb strings.Builder
	n := 8 + r.Intn(24)
	fmt.Fprintf(&sb, "var a = [];\nfor (var i = 0; i < %d; i++) a[i] = i;\n", n)
	fmt.Fprintf(&sb, "var o = {f0: 1, f1: 2, f2: 3};\n")
	fmt.Fprintf(&sb, "function run(n) {\n  var s = 0, t = 1;\n")
	loops := 1 + r.Intn(2)
	for l := 0; l < loops; l++ {
		fmt.Fprintf(&sb, "  for (var i%d = 0; i%d < n; i%d++) {\n", l, l, l)
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "    s += a[i%d %% %d];\n", l, n)
		case 1:
			fmt.Fprintf(&sb, "    a[i%d %% %d] = s & 1023;\n", l, n)
		case 2:
			fmt.Fprintf(&sb, "    s = (s + o.f%d) | 0;\n", r.Intn(3))
		case 3:
			fmt.Fprintf(&sb, "    o.f%d = s %% 97;\n", r.Intn(3))
		case 4:
			fmt.Fprintf(&sb, "    t = t * 3 + i%d;\n    if (t > 100000) t = 1;\n", l)
		default:
			fmt.Fprintf(&sb, "    if (i%d & 1) { s += 2; } else { s -= 1; }\n", l)
		}
		fmt.Fprintf(&sb, "  }\n")
	}
	fmt.Fprintf(&sb, "  return s + t;\n}\n")
	fmt.Fprintf(&sb, "for (var k = 0; k < 40; k++) run(%d);\nvar result = run(%d);\n", n, n)
	return sb.String()
}
