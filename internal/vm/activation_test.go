package vm_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// callSrc exercises every Baseline call shape with three arguments, one of
// them an object: a plain call (OpCall), a method call (OpCallMethod) and
// recursion.
const callSrc = `
var O = {x: 3};
function leaf(a, b, o) { return a + b + o.x; }
var M = {m: function (a, b, o) { return leaf(a, b, o) - 1; }};
function rec(n, b, o) { if (n == 0) return o.x; return rec(n - 1, b, o) + b; }
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = s + leaf(i, 2, O);
    s = s + M.m(i, 2, O);
  }
  return s + rec(n & 15, 1, O);
}
function makeCounter(start) {
  var n = start;
  return function () { n = n + 1; return n; };
}
function plain(start) { var n = start; return n + 1; }
`

// warmBaseline returns a VM capped at Baseline that has loaded src and run
// run(1000) a few times, so every function has tiered up and every call
// depth the measured runs reach has its activation.
func warmBaseline(t testing.TB, src string) *vm.VM {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	v := vm.New(cfg)
	if _, err := v.Run(src); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if _, err := v.CallGlobal("run", value.Int(1000)); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// A Baseline call runs on its depth's activation: frame, register file,
// environment and argument window are all reused, so a run's allocations do
// not depend on how many calls it makes. A function that creates a closure
// is the other side of the rule: its environment outlives the call, so every
// call still allocates one, and no closure captures lent storage.
func TestBaselineCallsDoNotAllocate(t *testing.T) {
	v := warmBaseline(t, callSrc)
	allocs := func(n int) float64 {
		arg := []value.Value{value.Int(int32(n))}
		run := v.Globals().Get("run").Object().Fn
		return testing.AllocsPerRun(20, func() {
			if _, err := v.Call(run, value.Undefined(), arg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("allocations per run: run(10) %v, run(1000) %v", small, large)
	if small != large {
		t.Errorf("run(10) allocates %v, run(1000) allocates %v: allocations grow with calls", small, large)
	}
	if large > 2 {
		t.Errorf("run(1000) allocates %v, want <= 2", large)
	}

	callOnce := func(name string) (value.Value, float64) {
		fn := v.Globals().Get(name).Object().Fn
		arg := []value.Value{value.Int(0)}
		var res value.Value
		n := testing.AllocsPerRun(20, func() {
			r, err := v.Call(fn, value.Undefined(), arg)
			if err != nil {
				t.Fatal(err)
			}
			res = r
		})
		return res, n
	}
	_, plainAllocs := callOnce("plain")
	c1, counterAllocs := callOnce("makeCounter")
	c2, _ := callOnce("makeCounter")
	t.Logf("allocations per call: plain %v, makeCounter %v", plainAllocs, counterAllocs)
	// makeCounter's environment (and its one cell) is allocated per call on
	// top of the closure itself.
	if counterAllocs < plainAllocs+3 {
		t.Errorf("makeCounter allocates %v per call, plain %v: the closure's environment is no longer allocated per call", counterAllocs, plainAllocs)
	}
	e1, e2 := c1.Object().Fn.Env, c2.Object().Fn.Env
	if e1 == e2 || v.LendsEnv(e1) || v.LendsEnv(e2) {
		t.Error("a closure captured an activation's lent environment")
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

// In the bytecode tiers a literal is one allocation: the literal's size
// travels in its bytecode, so the header and the storage for every key or
// element are allocated together, and boxing the object costs no map entry.
// Above 8 keys or elements the storage is one exact-size slice more.
func TestBaselineLiteralIsOneAllocation(t *testing.T) {
	for _, row := range []struct{ keys, elems, allocs int }{
		{1, 1, 1}, {3, 2, 1}, {8, 3, 1}, {8, 4, 1}, {8, 8, 1}, {9, 9, 2},
	} {
		t.Run(fmt.Sprintf("%dkeys_%delems", row.keys, row.elems), func(t *testing.T) {
			v := warmBaseline(t, literalKernel(row.keys, row.elems))
			allocs := func(n int32) float64 {
				return testing.AllocsPerRun(20, func() {
					if _, err := v.CallGlobal("run", value.Int(n)); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(10), allocs(1000)
			if got, want := large-small, float64(990*2*row.allocs); got != want {
				t.Errorf("run(1000) allocates %v, run(10) %v: %v more, want %v (%d per literal)",
					large, small, got, want, row.allocs)
			}
		})
	}
}

// outcome is everything a run exposes: the result or error, the printed
// output and every counter.
type outcome struct {
	res, err string
	out      []string
	ctrs     stats.Counters
}

func (o outcome) String() string {
	return "res=" + o.res + " err=" + o.err + " out=[" + strings.Join(o.out, ",") + "]"
}

// reuseCase is a program whose run() drives activations through re-entry or
// unwinding.
type reuseCase struct {
	name string
	src  string
	// cfg adjusts the configuration; the default caps tiering at Baseline.
	cfg func(*vm.Config)
	// jit attaches the speculative tiers.
	jit bool
	// interrupt, when non-nil, is installed for run() only.
	interrupt func() func() error
	want      string // the result, or the error's substring
	// check guards against a vacuous case (the transfer it exists for must
	// have happened).
	check func(*testing.T, *stats.Counters)
}

func (c reuseCase) run(t *testing.T, poison bool) (outcome, *vm.VM) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	v := vm.New(cfg)
	if c.jit {
		jit.Attach(v)
	}
	if poison {
		v.PoisonActivations(64)
	}
	if _, err := v.Run(c.src); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if c.interrupt != nil {
		v.SetInterrupt(c.interrupt())
	}
	res, err := v.CallGlobal("run")
	v.SetInterrupt(nil)
	o := outcome{res: res.ToStringValue(), out: v.Output, ctrs: *v.Counters()}
	if err != nil {
		o.err = err.Error()
	}
	return o, v
}

// Reused activations survive re-entry and unwinding: natives running on
// their caller's argument window while calling back into Baseline, recursion
// to the depth limit, an error thrown deep in the stack, an interrupt
// mid-recursion, OSR entry followed by a deopt in a callee, and a closure
// captured across calls. Each case must give the same result, output and
// counters on a VM whose activations hold stale state as on a fresh one, and
// leave the VM at depth 0 and ready for the next call.
func TestReusedActivationsSurviveReentryAndUnwinding(t *testing.T) {
	cases := []reuseCase{
		{name: "native-callbacks", src: `
function sq(x) { return x * x; }
function inc(x) { var u; return sq(x) + (u === undefined ? 1 : 1000); }
function addSq(acc, x) { return acc + sq(x); }
function bySqDesc(a, b) { return sq(b) - sq(a); }
function run() {
  var out = "";
  for (var k = 0; k < 60; k++) {
    var a = [3, -1, 4, -1, 5, -9, 2, 6];
    var m = a.map(inc);
    var r = a.reduce(addSq, k);
    a.sort(bySqDesc);
    out = m.join(",") + "|" + r + "|" + a.join(",");
    if (k % 20 == 0) print(out);
  }
  return out;
}`, want: "10,2,17,2,26,82,5,37|232|-9,6,5,4,3,2,-1,-1"},
		{name: "depth-limit", src: `
function down(n, o) { return down(n + 1, o) + o.x; }
function run() { return down(0, {x: 1}); }`,
			want: "maximum call depth exceeded"},
		{name: "error-50-deep", src: `
function deep(n, o) { if (n == 0) return o.missing.boom; return deep(n - 1, o) + 1; }
function run() { print("before"); return deep(50, {x: 1}); }`,
			want: "deep"},
		{name: "interrupt", src: `
function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
function run() { return fib(25); }`,
			interrupt: func() func() error {
				polls := 0
				return func() error {
					if polls++; polls == 5000 {
						return errors.New("deadline exceeded")
					}
					return nil
				}
			},
			want: "deadline exceeded"},
		{name: "osr-then-callee-deopt", src: `
var AP = new Array(64);
for (var i = 0; i < 64; i++) AP[i] = i;
function get(a, i) { return a[i & 63] * 2; }
function run() {
  var s = 0;
  for (var i = 0; i < 30000; i++) {
    if (i == 25000) AP[5] = 0.5;
    s = s + get(AP, i);
  }
  return s;
}`, cfg: func(c *vm.Config) { c.MaxTier = profile.TierFTL; c.Arch = vm.ArchBase }, jit: true,
			want: "1888530",
			check: func(t *testing.T, c *stats.Counters) {
				if c.OSREntries == 0 || c.Deopts == 0 {
					t.Fatalf("OSR entries %d, deopts %d: the case did not exercise both transfers", c.OSREntries, c.Deopts)
				}
			}},
		{name: "closure-across-calls", src: `
function makeCounter(start) {
  var n = start;
  return function () { n = n + 1; return n; };
}
var c1 = makeCounter(0);
var c2 = makeCounter(100);
function run() {
  var s = 0;
  for (var i = 0; i < 100; i++) s = s + c1() + c2();
  return s + c1() * 1000;
}`, want: "121100"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, _ := c.run(t, false)
			reused, v := c.run(t, true)
			got := fresh.res
			if fresh.err != "" {
				got = fresh.err
			}
			if !strings.Contains(got, c.want) {
				t.Errorf("run() = %q, want %q", got, c.want)
			}
			if fresh.String() != reused.String() || !reflect.DeepEqual(fresh.ctrs, reused.ctrs) {
				t.Errorf("reused activations diverge from a fresh VM:\nfresh:  %s\n%+v\nreused: %s\n%+v", fresh, fresh.ctrs, reused, reused.ctrs)
			}
			if c.check != nil {
				c.check(t, &reused.ctrs)
			}
			if d := v.CallDepth(); d != 0 {
				t.Fatalf("call depth %d after run(), want 0", d)
			}
			if _, err := v.Run(`function after(a, b) { return a * b; }`); err != nil {
				t.Fatalf("next program: %v", err)
			}
			if r, err := v.CallGlobal("after", value.Int(6), value.Int(7)); err != nil || r.ToNumber() != 42 {
				t.Errorf("next call = %v, %v; want 42", r, err)
			}
		})
	}
}

// BenchmarkBaselineCall measures one warm Baseline call with three arguments
// through the VM's call path.
func BenchmarkBaselineCall(b *testing.B) {
	v := warmBaseline(b, callSrc)
	leaf := v.Globals().Get("leaf").Object().Fn
	args := []value.Value{value.Int(1), value.Int(2), v.Globals().Get("O")}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := v.Call(leaf, value.Undefined(), args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiteral is one Baseline call of run(1), which builds a 7-key
// object literal and a 2-element array literal: its allocs/op is theirs.
func BenchmarkLiteral(b *testing.B) {
	v := warmBaseline(b, literalKernel(7, 2))
	arg := value.Int(1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := v.CallGlobal("run", arg); err != nil {
			b.Fatal(err)
		}
	}
}
