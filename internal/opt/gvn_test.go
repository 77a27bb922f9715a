package opt_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nomap/internal/core"
	"nomap/internal/harness"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/opt"
	"nomap/internal/oracle"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// memHeavy are the kernels whose transactions carry the largest read and
// write sets: the benchmark's steady_rtm_mem set.
var memHeavy = []string{"S03", "S13", "S18", "K05", "K06", "K07", "K08", "K14", "N05"}

// keyPrograms are the programs the key-equivalence test compiles: the 25
// AvgS kernels, the memory-heavy set and the oracle generator's programs.
// A dozen calls take every kernel through its DFG and FTL compiles.
func keyPrograms(t *testing.T) []oracle.Program {
	t.Helper()
	var progs []oracle.Program
	seen := map[string]bool{}
	add := func(w workloads.Workload) {
		if !seen[w.ID] {
			seen[w.ID] = true
			progs = append(progs, oracle.Program{Name: w.ID, Setup: w.Source, Calls: 12})
		}
	}
	for _, w := range workloads.AvgS(append(workloads.SunSpider(), workloads.Kraken()...)) {
		add(w)
	}
	for _, id := range memHeavy {
		w, ok := workloads.ByID(id)
		if !ok {
			t.Fatalf("no workload %s", id)
		}
		add(w)
	}
	for seed := int64(1); seed <= 32; seed++ {
		progs = append(progs, oracle.Generate(seed).Program(45, 10, 24))
	}
	return progs
}

// runProgram runs p on a fresh engine under arch with the fast tier-up
// policy.
func runProgram(t *testing.T, p oracle.Program, arch vm.Arch) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = harness.FastPolicy()
	v := vm.New(cfg)
	jit.Attach(v)
	if _, err := v.Run(p.Setup); err != nil {
		t.Fatalf("%s setup: %v", p.Name, err)
	}
	call := func(n int) {
		for range n {
			if _, err := v.CallGlobal("run", value.Int(int32(p.Arg))); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
	}
	call(p.Calls)
	if p.Poison != "" {
		if _, err := v.Run(p.Poison); err != nil {
			t.Fatalf("%s poison: %v", p.Name, err)
		}
		call(p.PostCalls)
	}
}

// partition checks, within each GVN run, that two values share a struct key
// exactly when they share a string key, and that both agree on which values
// are keyed at all. It fails at the first disagreement, before the code
// compiled from it runs.
type partition struct {
	t     *testing.T
	run   any
	byKey map[any]string
	byStr map[string]any
	runs  int
	keyed int
}

func (p *partition) observe(o opt.KeyObservation) {
	if o.Run != p.run {
		p.run, p.byKey, p.byStr = o.Run, map[any]string{}, map[string]any{}
		p.runs++
	}
	if o.OK != o.OracleOK {
		p.t.Fatalf("%v: struct key says keyed=%v, string key says %v", o.Value, o.OK, o.OracleOK)
	}
	if !o.OK {
		return
	}
	p.keyed++
	if s, seen := p.byKey[o.Key]; seen && s != o.Oracle {
		p.t.Fatalf("%v: struct key %+v also names string key %q, not %q", o.Value, o.Key, s, o.Oracle)
	}
	if k, seen := p.byStr[o.Oracle]; seen && k != o.Key {
		p.t.Fatalf("%v: string key %q also names struct key %+v, not %+v", o.Value, o.Oracle, k, o.Key)
	}
	p.byKey[o.Key], p.byStr[o.Oracle] = o.Oracle, o.Key
}

// The struct key partitions values exactly as the fmt-built string key did,
// on every value GVN keys while compiling the AvgS kernels, the
// memory-heavy set and the oracle generator's programs, with and without
// transactions.
func TestGVNKeyPartitionMatchesStringKey(t *testing.T) {
	p := &partition{t: t}
	defer opt.WatchKeys(p.observe)()
	for _, prog := range keyPrograms(t) {
		for _, arch := range []vm.Arch{vm.ArchBase, vm.ArchNoMap} {
			before := p.runs
			p.run = nil // a new engine's first run may reuse a freed run's address
			runProgram(t, prog, arch)
			if p.runs == before {
				t.Errorf("%s under %v: no GVN run", prog.Name, arch)
			}
		}
	}
	t.Logf("%d GVN runs, %d keyed values", p.runs, p.keyed)
}

// keyRows builds one block of hand-made values and returns GVN's key
// observations for them, by value.
func keyRows(t *testing.T, build func(b *ir.Block, obj *ir.Value)) map[*ir.Value]opt.KeyObservation {
	t.Helper()
	f := ir.NewFunc("rows", nil)
	b := f.NewBlock()
	f.Entry = b
	obj := b.NewValue(ir.OpParam, ir.TypeObject)
	build(b, obj)
	b.Kind = ir.BlockReturn
	b.Control = obj
	seen := map[*ir.Value]opt.KeyObservation{}
	restore := opt.WatchKeys(func(o opt.KeyObservation) { seen[o.Value] = o })
	opt.GVN(f)
	restore()
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	return seen
}

func constOf(b *ir.Block, val value.Value) *ir.Value {
	c := b.NewValue(ir.OpConst, ir.TypeGeneric)
	c.AuxVal = val
	return c
}

// Hand-built rows for the corners the struct key must keep: -0 and +0 stay
// apart, every NaN is one value, the string "1" is not the number 1, two
// shapes and two callees stay apart, and a load after an aliasing store is
// a new value while one after a store elsewhere is not.
func TestGVNKeyRows(t *testing.T) {
	shapeA, shapeB := &value.Shape{ID: 7}, &value.Shape{ID: 8}
	shapeA2 := &value.Shape{ID: 7} // another pointer with A's ID
	calleeA, calleeB := &value.Function{Name: "a"}, &value.Function{Name: "b"}
	var rows []struct {
		name     string
		x, y     *ir.Value
		sameKeys bool
	}
	row := func(name string, x, y *ir.Value, same bool) {
		rows = append(rows, struct {
			name     string
			x, y     *ir.Value
			sameKeys bool
		}{name, x, y, same})
	}
	seen := keyRows(t, func(b *ir.Block, obj *ir.Value) {
		row("-0 vs +0", constOf(b, value.Double(math.Copysign(0, -1))), constOf(b, value.Double(0)), false)
		row("NaN vs negative NaN", constOf(b, value.Double(math.NaN())), constOf(b, value.Double(math.Float64frombits(0xfff8000000000002))), true)
		row(`"1" vs 1`, constOf(b, value.Str("1")), constOf(b, value.Int(1)), false)
		row("1 vs 1.0", constOf(b, value.Int(1)), constOf(b, value.Double(1)), false)
		row("int 5 vs int 5", constOf(b, value.Int(5)), constOf(b, value.Int(5)), true)
		shape := func(s *value.Shape) *ir.Value {
			v := b.NewValue(ir.OpHasShape, ir.TypeBool, obj)
			v.Shape = s
			return v
		}
		row("two shapes", shape(shapeA), shape(shapeB), false)
		row("one shape ID, two pointers", shape(shapeA), shape(shapeA2), true)
		callee := func(fn *value.Function) *ir.Value {
			v := b.NewValue(ir.OpHasCallee, ir.TypeBool, obj)
			v.Callee = fn
			return v
		}
		row("two callees", callee(calleeA), callee(calleeB), false)
		load := func(off int64) *ir.Value {
			v := b.NewValue(ir.OpLoadSlot, ir.TypeGeneric, obj)
			v.AuxInt = off
			return v
		}
		store := func(off int64) {
			st := b.NewValue(ir.OpStoreSlot, ir.TypeNone, obj, obj)
			st.AuxInt = off
		}
		before := load(1)
		store(0)
		row("load, store elsewhere, load", before, load(1), true)
		aliased := load(1)
		store(1)
		row("load, aliasing store, load", aliased, load(1), false)
	})
	for _, r := range rows {
		x, y := seen[r.x], seen[r.y]
		if !x.OK || !y.OK || !x.OracleOK || !y.OracleOK {
			t.Errorf("%s: not keyed", r.name)
			continue
		}
		if got := x.Key == y.Key; got != r.sameKeys {
			t.Errorf("%s: equal struct keys = %v, want %v", r.name, got, r.sameKeys)
		}
		if got := x.Oracle == y.Oracle; got != r.sameKeys {
			t.Errorf("%s: equal string keys = %v (%q, %q), want %v", r.name, got, x.Oracle, y.Oracle, r.sameKeys)
		}
	}
}

// wideSrc renders a loop whose body repeats one statement group width
// times: more values and registers at every width, the same alias classes,
// and duplicate expressions for GVN to merge.
func wideSrc(width int) string {
	var body strings.Builder
	for i := range width {
		fmt.Fprintf(&body, "    var x%d = a[i] + o.k; s = s + x%d * 3 + (a[i] + o.k) * 3;\n", i, i)
	}
	return fmt.Sprintf(`var A = [];
for (var j = 0; j < 16; j++) A[j] = j;
var O = {k: 5};
function wide(a, o, n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
%s  }
  return s;
}
for (var c = 0; c < 30; c++) wide(A, O, 16);
`, body.String())
}

// GVN's storage is sized once per run: its table, forwarding table and
// dominator tree cost the same number of allocations on a function four
// times as wide. (Go splits a map into tables of 1024 slots, so the count
// steps once per ~900 values; both widths stay below the first step.)
func TestGVNAllocsFlatInWidth(t *testing.T) {
	const runs = 20
	allocs := func(width int) (float64, int) {
		fs := make([]*ir.Func, runs+1) // AllocsPerRun makes one warm-up call
		for i := range fs {
			fs[i] = buildIR(t, wideSrc(width), "wide")
			core.FormTransactions(fs[i], core.TxLoopNest)
		}
		values := fs[0].NumValues()
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			opt.GVN(fs[i])
			i++
		})
		verify(t, fs[0], "gvn")
		return n, values
	}
	narrow, nv := allocs(4)
	wide, wv := allocs(16)
	t.Logf("GVN allocations: %v at %d values, %v at %d values", narrow, nv, wide, wv)
	if narrow != wide {
		t.Errorf("GVN allocates %v at %d values but %v at %d values: allocations grow with value count", narrow, nv, wide, wv)
	}
}
