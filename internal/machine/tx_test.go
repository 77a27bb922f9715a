package machine_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nomap/internal/ir"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// twoStoreKernel does two transactional element stores per iteration; with
// bomb set it reads an undefined global after the first one.
const twoStoreKernel = `
var a = [];
var b = [];
for (var i = 0; i < 4096; i++) { a[i] = i; b[i] = 0; }
var bomb = 0;
function run(n) {
  for (var i = 0; i < n; i++) {
    a[i] = a[i] + 1;
    if (bomb) a[i] = missingGlobal;
    b[i] = a[i];
  }
  return a[n - 1];
}
`

func elementsOf(v *vm.VM, name string) []value.Value {
	return slices.Clone(v.Globals().Get(name).Object().Elements)
}

// An error raised inside a transaction is an abort: the transaction rolls
// back and closes, Baseline re-executes and raises the error with precise
// heap state, and the engine keeps running transactions afterwards.
func TestErrorInsideTransactionAborts(t *testing.T) {
	v, b := newEngineBackend(vm.ArchNoMap)
	warm(t, v, twoStoreKernel, 60, value.Int(32))

	// The reference never leaves the bytecode tiers.
	refCfg := vm.DefaultConfig()
	refCfg.MaxTier = profile.TierBaseline
	ref := vm.New(refCfg)
	warm(t, ref, twoStoreKernel, 60, value.Int(32))

	for _, e := range []*vm.VM{v, ref} {
		if _, err := e.Run(`bomb = 1;`); err != nil {
			t.Fatal(err)
		}
	}
	c := v.Counters()
	aborts := c.TxAborts
	_, err := v.CallGlobal("run", value.Int(32))
	if err == nil || !strings.Contains(err.Error(), "missingGlobal") {
		t.Fatalf("error = %v, want one naming missingGlobal", err)
	}
	if _, refErr := ref.CallGlobal("run", value.Int(32)); refErr == nil {
		t.Fatal("reference engine raised no error")
	}
	if c.TxAborts != aborts+1 || c.TxIrrevocableAborts == 0 {
		t.Errorf("TxAborts %d -> %d (irrevocable %d), want one irrevocable abort", aborts, c.TxAborts, c.TxIrrevocableAborts)
	}
	if b.InTransaction() {
		t.Error("transaction still open after the failing call")
	}
	if v.Shapes().Hook != nil {
		t.Error("write hook still installed after the failing call")
	}
	if c.TxBegins != c.TxCommits+c.TxAborts {
		t.Errorf("TxBegins %d != TxCommits %d + TxAborts %d", c.TxBegins, c.TxCommits, c.TxAborts)
	}
	for _, name := range []string{"a", "b"} {
		if got, want := elementsOf(v, name), elementsOf(ref, name); !slices.Equal(got, want) {
			t.Errorf("%s diverges from the bytecode-only engine after the error:\n got %v\nwant %v", name, got[:4], want[:4])
		}
	}

	for _, e := range []*vm.VM{v, ref} {
		if _, err := e.Run(`bomb = 0;`); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		got, err := v.CallGlobal("run", value.Int(32))
		if err != nil {
			t.Fatalf("call %d after the error: %v", i, err)
		}
		want, _ := ref.CallGlobal("run", value.Int(32))
		if got != want {
			t.Errorf("call %d after the error = %v, want %v", i, got, want)
		}
	}
	if b.InTransaction() || c.TxBegins != c.TxCommits+c.TxAborts {
		t.Errorf("after recovery: open=%v begins=%d commits=%d aborts=%d",
			b.InTransaction(), c.TxBegins, c.TxCommits, c.TxAborts)
	}
}

type injectFunc func(machine.Site) machine.Action

func (f injectFunc) At(s machine.Site) machine.Action { return f(s) }

// A transactional store costs a log record, not a heap object: a warm call's
// host allocations do not grow with the number of stores it performs.
func TestAllocationsDoNotScaleWithTransactionalWork(t *testing.T) {
	for _, tc := range []struct {
		arch     vm.Arch
		small, n int32
	}{
		{vm.ArchNoMap, 32, 4096},
		// Two arrays of n 8-byte elements must fit RTM's 32KB L1 write set
		// below the 3/4 tiling point.
		{vm.ArchNoMapRTM, 32, 1024},
	} {
		t.Run(tc.arch.String(), func(t *testing.T) {
			v, _ := newEngineBackend(tc.arch)
			warm(t, v, twoStoreKernel, 60, value.Int(tc.n))
			c := v.Counters()
			measure := func(n int32) float64 {
				arg := value.Int(n)
				begins, commits, aborts := c.TxBegins, c.TxCommits, c.TxAborts
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := v.CallGlobal("run", arg); err != nil {
						t.Fatal(err)
					}
				})
				if c.TxBegins == begins || c.TxCommits-commits != c.TxBegins-begins || c.TxAborts != aborts {
					t.Fatalf("run(%d) is not steadily transactional: begins +%d commits +%d aborts +%d",
						n, c.TxBegins-begins, c.TxCommits-commits, c.TxAborts-aborts)
				}
				return allocs
			}
			small, large := measure(tc.small), measure(tc.n)
			if small != large || large > 8 {
				t.Errorf("allocs per call: run(%d) = %v, run(%d) = %v; want equal and at most 8",
					tc.small, small, tc.n, large)
			}
		})
	}
}

// literalKernel defines run(n), whose loop builds one object literal with
// keys keys and one array literal with elems elements per iteration.
func literalKernel(keys, elems int) string {
	props, items := make([]string, keys), make([]string, elems)
	for i := range props {
		props[i] = fmt.Sprintf("p%d: i", i)
	}
	for i := range items {
		items[i] = "i"
	}
	return fmt.Sprintf(`
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    var o = {%s};
    var a = [%s];
    s = s + o.p0 + a[0];
  }
  return s;
}
`, strings.Join(props, ", "), strings.Join(items, ", "))
}

// In compiled code a literal is one allocation, as in the bytecode tiers:
// the newobject and newarray runtime calls carry the literal's size, and
// neither boxing the object nor giving it simulated addresses costs a map
// entry. Above 8 keys or elements the storage is one exact-size slice
// more. A thousand arrays overflow the write set, so the warm-up alternates
// both sizes until the governor has stopped probing: no measured call may
// abort.
func TestCompiledLiteralIsOneAllocation(t *testing.T) {
	for _, row := range []struct{ keys, elems, allocs int }{
		{1, 1, 1}, {3, 2, 1}, {8, 3, 1}, {8, 4, 1}, {8, 8, 1}, {9, 9, 2},
	} {
		t.Run(fmt.Sprintf("%dkeys_%delems", row.keys, row.elems), func(t *testing.T) {
			v, _ := newEngineBackend(vm.ArchNoMap)
			warm(t, v, literalKernel(row.keys, row.elems), 60, value.Int(1000))
			for range 60 {
				for _, n := range []int32{10, 1000} {
					if _, err := v.CallGlobal("run", value.Int(n)); err != nil {
						t.Fatal(err)
					}
				}
			}
			c := v.Counters()
			allocs := func(n int32) float64 {
				ftl, aborts := c.FTLCalls, c.TxAborts
				a := testing.AllocsPerRun(20, func() {
					if _, err := v.CallGlobal("run", value.Int(n)); err != nil {
						t.Fatal(err)
					}
				})
				if c.FTLCalls-ftl != 21 || c.TxAborts != aborts {
					t.Fatalf("run(%d) is not steady FTL code: FTL calls +%d, aborts +%d", n, c.FTLCalls-ftl, c.TxAborts-aborts)
				}
				return a
			}
			small, large := allocs(10), allocs(1000)
			if got, want := large-small, float64(990*2*row.allocs); got != want {
				t.Errorf("run(1000) allocates %v, run(10) %v: %v more, want %v (%d per literal)",
					large, small, got, want, row.allocs)
			}
		})
	}
}

// objState is everything the write hook can be asked to restore.
type objState struct {
	shape    *value.Shape
	slots    []value.Value
	elements []value.Value
	length   int
}

func stateOf(o *value.Object) objState {
	return objState{o.Shape, slices.Clone(o.Slots), slices.Clone(o.Elements), o.Length}
}

func (s objState) diff(now objState) string {
	switch {
	case s.shape != now.shape:
		return "shape"
	case !slices.Equal(s.slots, now.slots):
		return fmt.Sprintf("slots %v -> %v", s.slots, now.slots)
	case !slices.Equal(s.elements, now.elements):
		return fmt.Sprintf("elements %v -> %v", s.elements, now.elements)
	case s.length != now.length:
		return fmt.Sprintf("length %d -> %d", s.length, now.length)
	}
	return ""
}

// Every kind of heap mutation a transaction can perform is rolled back by an
// abort at its commit site — and only because its undo record is replayed:
// dropping that kind's records from the log (the planted bug) must show.
func TestRollbackPerUndoKind(t *testing.T) {
	// reset() rebuilds the objects so every call mutates from the same
	// state; each body runs inside run()'s loop transaction.
	// s and e are literals whose storage is inline and full, so a store
	// past it moves the storage out of the object.
	const prelude = `
var o, p, a, g, l, t, s, e;
function reset() {
  o = {x: 1, y: 2};
  p = {x: 1};
  a = [0, 1, 2, 3, 4, 5, 6, 7];
  g = [0, 1, 2, 3];
  l = [0, 1, 2, 3];
  t = [0, 1, 2, 3, 4, 5, 6, 7];
  s = {x: 1, y: 2};
  e = [0, 1];
}
`
	cases := []struct {
		name, body string
		kinds      []machine.UndoKind
	}{
		{"slot overwrite", `o.y = o.y + i + 1;`, []machine.UndoKind{machine.UndoSlot}},
		{"property add", `p.z = i;`, []machine.UndoKind{machine.UndoShape}},
		{"element overwrite", `a[i] = a[i] + 10;`, []machine.UndoKind{machine.UndoElem}},
		{"elongating store", `g[g.length] = i;`, []machine.UndoKind{machine.UndoExtent}},
		{"length growth", `l.length = l.length + 2;`, []machine.UndoKind{machine.UndoExtent}},
		{"pop", `t.pop();`, []machine.UndoKind{machine.UndoTail}},
		{"truncation", `t.length = t.length - 2;`, []machine.UndoKind{machine.UndoTail}},
		{"property add past inline storage", `s.z = i;`, []machine.UndoKind{machine.UndoShape}},
		{"element store past inline storage", `e[i + 2] = i;`, []machine.UndoKind{machine.UndoExtent}},
	}
	all := cases[0]
	all.name = "combined"
	for _, c := range cases[1:] {
		all.body += "\n    " + c.body
		if !slices.Contains(all.kinds, c.kinds[0]) {
			all.kinds = append(all.kinds, c.kinds[0])
		}
	}
	cases = append(cases, all)

	for _, arch := range []vm.Arch{vm.ArchNoMap, vm.ArchNoMapRTM} {
		for _, tc := range cases {
			t.Run(arch.String()+"/"+tc.name, func(t *testing.T) {
				src := prelude + "function run(n) {\n  for (var i = 0; i < n; i++) {\n    " + tc.body + "\n  }\n  return n;\n}\n"
				v, b := newEngineBackend(arch)
				if _, err := v.Run(src); err != nil {
					t.Fatal(err)
				}
				reset := func() {
					if _, err := v.CallGlobal("reset"); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 70; i++ {
					reset()
					if _, err := v.CallGlobal("run", value.Int(3)); err != nil {
						t.Fatal(err)
					}
				}
				var code *ir.Func
				for _, f := range b.CompiledFunctions() {
					if f.Name == "run" && f.OSREntryPC < 0 {
						code = f
					}
				}
				if code == nil {
					t.Fatal("run has no invocation-entry artifact")
				}

				// abortAtCommit runs the compiled code on the machine alone —
				// nothing resumes the recovery frame, so the heap is observed
				// right after rollback — and reports which objects differ from
				// their state before the call. drop names the undo kind the
				// planted bug forgets, or -1.
				abortAtCommit := func(drop int) (diffs []string, dropped int) {
					reset()
					names := []string{"o", "p", "a", "g", "l", "t", "s", "e"}
					before := make([]objState, len(names))
					for i, n := range names {
						before[i] = stateOf(v.Globals().Get(n).Object())
					}
					m := b.Machine()
					m.SetInjector(injectFunc(func(s machine.Site) machine.Action {
						if s.Kind != machine.SiteTxCommit {
							return machine.ActNone
						}
						if drop >= 0 {
							dropped = m.DropUndoKind(machine.UndoKind(drop))
						}
						return machine.ActAbortCapacity
					}))
					defer m.SetInjector(nil)
					_, d, err := m.Run(code, profile.TierFTL, []value.Value{value.Int(3)})
					if err != nil {
						t.Fatal(err)
					}
					if d == nil || !d.Aborted {
						t.Fatalf("deopt = %+v, want an abort at the commit site", d)
					}
					if m.InTx() || v.Shapes().Hook != nil {
						t.Fatal("transaction or hook left behind by the abort")
					}
					for i, n := range names {
						if df := before[i].diff(stateOf(v.Globals().Get(n).Object())); df != "" {
							diffs = append(diffs, n+": "+df)
						}
					}
					return diffs, dropped
				}

				if diffs, _ := abortAtCommit(-1); len(diffs) != 0 {
					t.Errorf("heap differs from the pre-call snapshot after rollback: %v", diffs)
				}
				// The rolled-back objects take new stores as if fresh.
				if _, err := v.Run(`s.z = 100; e[2] = 10;`); err != nil {
					t.Fatal(err)
				}
				so, eo := v.Globals().Get("s").Object(), v.Globals().Get("e").Object()
				if z, e2 := so.Get("z"), eo.GetElement(2); z != value.Int(100) || e2 != value.Int(10) || eo.Length != 3 {
					t.Errorf("re-add after rollback reads s.z = %v, e[2] = %v, e.length = %d; want 100, 10, 3", z, e2, eo.Length)
				}
				for _, k := range tc.kinds {
					diffs, dropped := abortAtCommit(int(k))
					if dropped == 0 {
						t.Errorf("kind %d: the body logged no such record", k)
					} else if len(diffs) == 0 {
						t.Errorf("kind %d: rollback without its %d records went unnoticed", k, dropped)
					}
				}
			})
		}
	}
}

// BenchmarkMachineCallWarm is one warm FTL call of the two-store kernel: the
// machine loop, the write hook and the HTM model, with no compiler in it.
func BenchmarkMachineCallWarm(b *testing.B) {
	v, _ := newEngineBackend(vm.ArchNoMap)
	if _, err := v.Run(twoStoreKernel); err != nil {
		b.Fatal(err)
	}
	arg := value.Int(4096)
	for i := 0; i < 60; i++ {
		if _, err := v.CallGlobal("run", arg); err != nil {
			b.Fatal(err)
		}
	}
	instr := v.Counters().TotalInstr()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CallGlobal("run", arg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Counters().TotalInstr()-instr)/b.Elapsed().Seconds(), "sim-instr/s")
}
