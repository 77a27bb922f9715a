package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nomap/internal/profile"
	"nomap/internal/value"
)

func run(t *testing.T, src string) value.Value {
	t.Helper()
	vm := New(DefaultConfig())
	v, err := vm.Run(src)
	if err != nil {
		t.Fatalf("Run: %v\nsource:\n%s", err, src)
	}
	return v
}

func runExpect(t *testing.T, src string, want float64) {
	t.Helper()
	v := run(t, src)
	if got := v.ToNumber(); got != want {
		t.Errorf("result = %v, want %v\nsource:\n%s", got, want, src)
	}
}

func TestArithmeticProgram(t *testing.T) {
	runExpect(t, "var result = 1 + 2 * 3 - 4 / 2;", 5)
	runExpect(t, "var result = (1 + 2) * 3;", 9)
	runExpect(t, "var result = 7 % 3;", 1)
	runExpect(t, "var result = 2 * 3 + 10 % 4;", 8)
}

func TestVariablesAndControlFlow(t *testing.T) {
	runExpect(t, `
var s = 0;
for (var i = 0; i < 10; i++) { s += i; }
var result = s;`, 45)
	runExpect(t, `
var s = 0, i = 0;
while (i < 5) { s += i * i; i++; }
var result = s;`, 30)
	runExpect(t, `
var n = 0;
do { n++; } while (n < 3);
var result = n;`, 3)
	runExpect(t, `
var x = 10, r;
if (x > 5) { r = 1; } else { r = 2; }
var result = r;`, 1)
}

func TestBreakContinue(t *testing.T) {
	runExpect(t, `
var s = 0;
for (var i = 0; i < 100; i++) {
  if (i % 2 == 0) continue;
  if (i > 10) break;
  s += i;
}
var result = s;`, 1+3+5+7+9)
}

func TestFunctionsAndRecursion(t *testing.T) {
	runExpect(t, `
function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
var result = fib(15);`, 610)
	runExpect(t, `
function add(a, b) { return a + b; }
var result = add(add(1, 2), add(3, 4));`, 10)
}

func TestClosures(t *testing.T) {
	runExpect(t, `
function counter() {
  var n = 0;
  return function() { n = n + 1; return n; };
}
var c = counter();
c(); c();
var result = c();`, 3)
	runExpect(t, `
function makeAdder(k) { return function(x) { return x + k; }; }
var add5 = makeAdder(5);
var add7 = makeAdder(7);
var result = add5(1) + add7(2);`, 15)
}

func TestObjectsAndArrays(t *testing.T) {
	runExpect(t, `
var obj = {values: [1, 2, 3, 4], sum: 0};
var len = obj.values.length;
for (var idx = 0; idx < len; idx++) {
  obj.sum += obj.values[idx];
}
var result = obj.sum;`, 10)
	runExpect(t, `
var a = new Array(5);
for (var i = 0; i < 5; i++) a[i] = i * i;
var result = a[4];`, 16)
	runExpect(t, `
var a = [];
a[10] = 7;
var result = a.length + (a[3] === undefined ? 100 : 0);`, 111)
}

func TestArrayMethods(t *testing.T) {
	runExpect(t, `
var a = [3, 1, 2];
a.push(4);
a.sort(function(x, y) { return x - y; });
var result = a[0] * 1000 + a[3] * 100 + a.pop() * 10 + a.length;`, 1000+400+40+3)
	v := run(t, `var result = [1, 2, 3].join("-");`)
	if v.ToStringValue() != "1-2-3" {
		t.Errorf("join = %q", v)
	}
	runExpect(t, `var result = [5, 6, 7].indexOf(6);`, 1)
	runExpect(t, `var result = [1,2,3].slice(1).length;`, 2)
	runExpect(t, `
var a = [1,2,3];
a.reverse();
var result = a[0];`, 3)
}

func TestStringMethods(t *testing.T) {
	v := run(t, `var result = "hello".toUpperCase() + "WORLD".toLowerCase();`)
	if v.ToStringValue() != "HELLOworld" {
		t.Errorf("got %q", v)
	}
	runExpect(t, `var result = "abc".charCodeAt(1);`, 98)
	runExpect(t, `var result = "hello world".indexOf("world");`, 6)
	v = run(t, `var result = "one,two,three".split(",")[1];`)
	if v.ToStringValue() != "two" {
		t.Errorf("split = %q", v)
	}
	v = run(t, `var result = String.fromCharCode(72, 105);`)
	if v.ToStringValue() != "Hi" {
		t.Errorf("fromCharCode = %q", v)
	}
	runExpect(t, `var result = "hello".length;`, 5)
	v = run(t, `var result = "hello"[1];`)
	if v.ToStringValue() != "e" {
		t.Errorf("index = %q", v)
	}
}

func TestMathBuiltins(t *testing.T) {
	runExpect(t, `var result = Math.floor(3.7) + Math.ceil(3.2) + Math.abs(-5);`, 12)
	runExpect(t, `var result = Math.pow(2, 10);`, 1024)
	runExpect(t, `var result = Math.sqrt(144);`, 12)
	runExpect(t, `var result = Math.max(1, 9, 4) + Math.min(3, -2);`, 7)
	v := run(t, `var result = Math.sin(0) + Math.cos(0);`)
	if v.ToNumber() != 1 {
		t.Errorf("sin/cos = %v", v)
	}
}

func TestMathRandomDeterministic(t *testing.T) {
	src := `
var s = 0;
for (var i = 0; i < 100; i++) s += Math.random();
var result = s;`
	a := run(t, src).ToNumber()
	b := run(t, src).ToNumber()
	if a != b {
		t.Errorf("Math.random not deterministic across VMs: %v vs %v", a, b)
	}
	if a <= 0 || a >= 100 {
		t.Errorf("random sum out of range: %v", a)
	}
}

func TestIntegerOverflowPromotes(t *testing.T) {
	runExpect(t, `
var x = 2147483647;
var result = x + 1;`, 2147483648)
	runExpect(t, `
var x = 1;
for (var i = 0; i < 40; i++) x = x * 2;
var result = x;`, math.Pow(2, 40))
}

func TestGlobalsAcrossFunctions(t *testing.T) {
	runExpect(t, `
var total = 0;
function bump(n) { total += n; }
bump(3); bump(4);
var result = total;`, 7)
}

func TestPrintCapturesOutput(t *testing.T) {
	vm := New(DefaultConfig())
	if _, err := vm.Run(`print("a", 1); print("b");`); err != nil {
		t.Fatal(err)
	}
	if len(vm.Output) != 2 || vm.Output[0] != "a 1" || vm.Output[1] != "b" {
		t.Errorf("Output = %q", vm.Output)
	}
}

func TestCallGlobal(t *testing.T) {
	vm := New(DefaultConfig())
	if _, err := vm.Run(`function run(n) { return n * 2; }`); err != nil {
		t.Fatal(err)
	}
	v, err := vm.CallGlobal("run", value.Int(21))
	if err != nil {
		t.Fatal(err)
	}
	if v.ToNumber() != 42 {
		t.Errorf("run(21) = %v", v)
	}
	if _, err := vm.CallGlobal("nosuch"); err == nil {
		t.Error("expected error for missing global function")
	}
}

func TestTierUpToBaseline(t *testing.T) {
	vm := New(DefaultConfig())
	_, err := vm.Run(`
function hot(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }
var r = 0;
for (var k = 0; k < 20; k++) r = hot(100);
var result = r;`)
	if err != nil {
		t.Fatal(err)
	}
	c := vm.Counters()
	if c.BaselineOps == 0 {
		t.Error("expected Baseline execution after tier-up")
	}
	if c.InterpOps == 0 {
		t.Error("expected some interpreter execution before tier-up")
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []string{
		`var x = null; x.foo;`,
		`var x; x.foo;`,
		`var f = 5; f();`,
		`undefinedGlobal + 1;`,
		`var o = {}; o.missing();`,
	}
	for _, src := range cases {
		vm := New(DefaultConfig())
		if _, err := vm.Run(src); err == nil {
			t.Errorf("%q: expected runtime error", src)
		}
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	vm := New(DefaultConfig())
	_, err := vm.Run(`function f() { return f(); } f();`)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("expected depth error, got %v", err)
	}
}

func TestTernaryAndLogical(t *testing.T) {
	runExpect(t, `var result = 1 < 2 ? 10 : 20;`, 10)
	runExpect(t, `var result = (0 || 7) + (3 && 4);`, 11)
	runExpect(t, `var x = 0; var result = x || "fallback" === "fallback" ? 1 : 0;`, 1)
}

func TestTypeofAndEquality(t *testing.T) {
	v := run(t, `var result = typeof 1 + typeof "s" + typeof undefined;`)
	if v.ToStringValue() != "numberstringundefined" {
		t.Errorf("typeof = %q", v)
	}
	runExpect(t, `var result = (1 == "1" ? 1 : 0) + (1 === "1" ? 10 : 0);`, 1)
	runExpect(t, `var result = (null == undefined ? 1 : 0) + (null === undefined ? 10 : 0);`, 1)
}

func TestBitwisePrograms(t *testing.T) {
	runExpect(t, `var result = (0xF0 | 0x0F) ^ 0xFF;`, 0)
	runExpect(t, `var result = (1 << 10) >> 2;`, 256)
	runExpect(t, `var result = -1 >>> 28;`, 15)
	runExpect(t, `var result = ~5;`, -6)
}

func TestUpdateExpressions(t *testing.T) {
	runExpect(t, `var i = 5; var a = i++; var result = a * 10 + i;`, 56)
	runExpect(t, `var i = 5; var a = ++i; var result = a * 10 + i;`, 66)
	runExpect(t, `var a = [1,2,3]; var i = 0; a[i++] = 9; var result = a[0] * 10 + i;`, 91)
	runExpect(t, `var o = {n: 1}; o.n++; ++o.n; var result = o.n;`, 3)
}

func TestNumberMethods(t *testing.T) {
	v := run(t, `var result = (255).toString(16);`)
	if v.ToStringValue() != "ff" {
		t.Errorf("toString(16) = %q", v)
	}
	v = run(t, `var result = (3.14159).toFixed(2);`)
	if v.ToStringValue() != "3.14" {
		t.Errorf("toFixed = %q", v)
	}
}

func TestParseIntFloat(t *testing.T) {
	runExpect(t, `var result = parseInt("42");`, 42)
	runExpect(t, `var result = parseInt("ff", 16);`, 255)
	runExpect(t, `var result = parseInt("0x10");`, 16)
	runExpect(t, `var result = parseFloat("3.5xyz" === "3.5xyz" ? "3.5" : "0");`, 3.5)
	v := run(t, `var result = isNaN(parseInt("zzz"));`)
	if !v.ToBoolean() {
		t.Error("parseInt(zzz) should be NaN")
	}
}

func TestNestedFunctionsPinnedToBaseline(t *testing.T) {
	vm := New(DefaultConfig())
	_, err := vm.Run(`
function outer() {
  var acc = 0;
  function inner(x) { acc += x; }
  for (var i = 0; i < 10; i++) inner(i);
  return acc;
}
var r = 0;
for (var k = 0; k < 700; k++) r = outer();
var result = r;`)
	if err != nil {
		t.Fatal(err)
	}
	// outer uses closures so it must never reach DFG/FTL.
	for fn, p := range vm.profiles {
		if fn.UsesClosure {
			if tier := vm.cfg.Policy.TierFor(p, profile.TierFTL); tier > profile.TierBaseline {
				t.Errorf("closure-using %s resolved to tier %v", fn.Name, tier)
			}
		}
	}
}

func TestConstructUserFunction(t *testing.T) {
	runExpect(t, `
function Point(x, y) { return {x: x, y: y}; }
var p = new Point(3, 4);
var result = p.x + p.y;`, 7)
}

func TestShadowingParamAndLocal(t *testing.T) {
	runExpect(t, `
var x = 100;
function f(x) { var y = x + 1; return y; }
var result = f(1) + x;`, 102)
}

func TestVarWithoutInitIsUndefined(t *testing.T) {
	runExpect(t, `var a; var result = (a === undefined) ? 1 : 0;`, 1)
	runExpect(t, `
function f() { var q; return q === undefined ? 1 : 0; }
var result = f();`, 1)
}

func TestHoistedFunctionCallableBeforeDecl(t *testing.T) {
	runExpect(t, `
var result = helper(4);
function helper(n) { return n * n; }`, 16)
}

func TestSwitchStatement(t *testing.T) {
	runExpect(t, `
function classify(n) {
  var r;
  switch (n % 4) {
  case 0: r = 100; break;
  case 1: r = 200; break;
  case 2: r = 300; break;
  default: r = 999;
  }
  return r;
}
var result = classify(0) + classify(1) + classify(2) + classify(3);`, 100+200+300+999)
	// Fallthrough semantics.
	runExpect(t, `
var hits = 0;
switch (2) {
case 1: hits += 1;
case 2: hits += 10;
case 3: hits += 100;
default: hits += 1000;
}
var result = hits;`, 1110)
	// Strict-equality dispatch: "1" does not match 1.
	runExpect(t, `
var r = 0;
switch ("1") {
case 1: r = 5; break;
default: r = 7;
}
var result = r;`, 7)
	// Default in the middle; matching case after it still reachable.
	runExpect(t, `
function f(x) {
  var r = 0;
  switch (x) {
  case 1: r += 1; break;
  default: r += 50;
  case 9: r += 9; break;
  }
  return r;
}
var result = f(1) * 10000 + f(9) * 100 + f(5);`, 1*10000+9*100+59)
	// break in switch inside a loop: continue still targets the loop.
	runExpect(t, `
var s = 0;
for (var i = 0; i < 6; i++) {
  switch (i % 3) {
  case 0: s += 1; break;
  case 1: continue;
  default: s += 100;
  }
  s += 1000;
}
var result = s;`, 2*1+2*100+4*1000)
}

func TestSwitchReachesFTLConsistently(t *testing.T) {
	src := `
function kind(x) {
  switch (x & 3) {
  case 0: return 11;
  case 1: return 22;
  case 2: return 33;
  }
  return 44;
}
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += kind(i);
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run(64);
var result = r;
`
	ref := run(t, src)
	vmFTL := New(DefaultConfig())
	got, err := vmFTL.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.ToStringValue() != ref.ToStringValue() {
		t.Errorf("FTL switch result %v, want %v", got, ref)
	}
}

func TestArrayHigherOrderMethods(t *testing.T) {
	runExpect(t, `
var doubled = [1, 2, 3].map(function(x) { return x * 2; });
var result = doubled[0] + doubled[1] + doubled[2];`, 12)
	runExpect(t, `
var evens = [1, 2, 3, 4, 5, 6].filter(function(x) { return x % 2 == 0; });
var result = evens.length * 100 + evens[0];`, 302)
	runExpect(t, `
var result = [1, 2, 3, 4].reduce(function(a, b) { return a + b; });`, 10)
	runExpect(t, `
var result = [1, 2, 3].reduce(function(a, b) { return a + b; }, 100);`, 106)
	runExpect(t, `
var s = 0;
[5, 6, 7].forEach(function(x, i) { s += x * (i + 1); });
var result = s;`, 5+12+21)
	runExpect(t, `
var result = ([2, 4, 6].every(function(x) { return x % 2 == 0; }) ? 1 : 0) +
             ([1, 2].some(function(x) { return x > 1; }) ? 10 : 0) +
             ([1, 3].every(function(x) { return x > 2; }) ? 100 : 0);`, 11)
	runExpect(t, `
var a = [0, 0, 0, 0];
a.fill(7, 1, 3);
var result = a[0] * 1000 + a[1] * 100 + a[2] * 10 + a[3];`, 770)
	runExpect(t, `var result = [3, 1, 3, 2].lastIndexOf(3);`, 2)
}

func TestArrayMethodErrors(t *testing.T) {
	for _, src := range []string{
		`[].reduce(function(a, b) { return a + b; });`,
		`[1].map(5);`,
	} {
		vm := New(DefaultConfig())
		if _, err := vm.Run(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

// Array(n) allocates its holes at once, so it takes a valid length only up
// to maxArrayLength; above that, as for an invalid length, it raises.
func TestArrayLengthCap(t *testing.T) {
	runExpect(t, fmt.Sprintf(`var result = new Array(%d).length;`, maxArrayLength), maxArrayLength)
	for _, n := range []float64{maxArrayLength + 1, 4294967295} {
		vm := New(DefaultConfig())
		_, err := vm.Run(fmt.Sprintf(`new Array(%v);`, n))
		if err == nil || !strings.Contains(err.Error(), "RangeError: Invalid array length") {
			t.Errorf("new Array(%v): error %v, want RangeError: Invalid array length", n, err)
		}
	}
}

func TestMoreStringMethods(t *testing.T) {
	v := run(t, `var result = "  padded  ".trim();`)
	if v.ToStringValue() != "padded" {
		t.Errorf("trim = %q", v)
	}
	runExpect(t, `
var result = ("hello".startsWith("he") ? 1 : 0) +
             ("hello".endsWith("lo") ? 10 : 0) +
             ("hello".includes("ell") ? 100 : 0) +
             ("hello".startsWith("lo") ? 1000 : 0);`, 111)
	v = run(t, `var result = "ab".repeat(3);`)
	if v.ToStringValue() != "ababab" {
		t.Errorf("repeat = %q", v)
	}
	vm := New(DefaultConfig())
	if _, err := vm.Run(`"x".repeat(-1);`); err == nil {
		t.Error("negative repeat must error")
	}
}

// newAllocsReplayed is what New allocated when it built the realm by
// replaying Object.Set over a fresh shape table on every Reset.
const newAllocsReplayed = 291

// The builtin realm is built once, by New, and every Reset restores it from
// the template: Reset allocates exactly the realm's fresh objects — every
// native's function object in one allocation, then each plain object with
// its slots — and nothing for a shape transition or a lookup table, even
// after a tenant extended the template's shapes. New pays for the template
// once, no more than the replayed construction cost.
func TestRealmAllocations(t *testing.T) {
	cfg := DefaultConfig()
	newAllocs := testing.AllocsPerRun(20, func() { New(cfg) })

	v := New(cfg)
	if _, err := v.Run(`var o = {abs: 1, q: 2}; Math.z = 1; print.y = 2; x = Math.floor(o.q);`); err != nil {
		t.Fatal(err)
	}
	resetAllocs := testing.AllocsPerRun(20, v.Reset)
	objects := 1.0
	for _, o := range v.realm.objs {
		objects += testing.AllocsPerRun(20, func() { value.NewObjectOf(v.shapes, o.shape, o.class, o.slots) })
	}
	t.Logf("allocations: New %v, Reset %v (the realm's objects: %v)", newAllocs, resetAllocs, objects)
	if resetAllocs > objects {
		t.Errorf("Reset allocates %v, want at most the realm's %v objects: it rebuilds shapes or tables", resetAllocs, objects)
	}
	if newAllocs > newAllocsReplayed {
		t.Errorf("New allocates %v, want at most %v", newAllocs, newAllocsReplayed)
	}
}
