package nomap

import (
	"fmt"
	"testing"
)

// Differential testing: the same program must produce identical results in
// every tier and under every architecture configuration. This is the
// strongest correctness statement about NoMap — the transformation is
// supposed to be semantics-preserving even though it reads garbage past
// removed bounds checks and rolls the world back on aborts.

// programs exercise the speculation surface: int arithmetic with and
// without overflow, doubles, property access, dense and holey arrays,
// calls, strings, and deopt-inducing type changes.
var differentialPrograms = []struct {
	name string
	src  string
}{
	{"int-sum-loop", `
function run() {
  var a = [];
  for (var i = 0; i < 200; i++) a[i] = i;
  var s = 0;
  for (var j = 0; j < 200; j++) s += a[j];
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run();
var result = r;`},

	{"figure4-object-sum", `
var obj = {values: [], sum: 0};
for (var i = 0; i < 100; i++) obj.values[i] = i * 3;
function run() {
  obj.sum = 0;
  var len = obj.values.length;
  for (var idx = 0; idx < len; idx++) {
    obj.sum += obj.values[idx];
  }
  return obj.sum;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run();
var result = r;`},

	{"overflow-promotes", `
function run(seed) {
  var x = seed;
  var s = 0;
  for (var i = 0; i < 64; i++) {
    x = x * 3 + 1;
    s += x % 1000;
  }
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run(k % 7 + 1);
var result = r;`},

	{"double-math", `
function run(n) {
  var s = 0.0;
  for (var i = 1; i <= n; i++) {
    s += Math.sqrt(i) + Math.sin(i * 0.1);
  }
  return Math.floor(s * 1000);
}
var r = 0;
for (var k = 0; k < 700; k++) r = run(50);
var result = r;`},

	{"nested-loops-matrix", `
function run(n) {
  var m = [];
  for (var i = 0; i < n; i++) {
    m[i] = [];
    for (var j = 0; j < n; j++) m[i][j] = i * n + j;
  }
  var t = 0;
  for (var i2 = 0; i2 < n; i2++)
    for (var j2 = 0; j2 < n; j2++)
      t += m[i2][j2];
  return t;
}
var r = 0;
for (var k = 0; k < 700; k++) r = run(8);
var result = r;`},

	{"holey-array", `
var a = [];
a[0] = 1; a[2] = 3; a[5] = 8;
function run() {
  var s = 0;
  for (var i = 0; i < 6; i++) {
    var v = a[i];
    if (v === undefined) s += 100; else s += v;
  }
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run();
var result = r;`},

	{"direct-calls", `
function leaf(x, y) { return (x * y + 3) % 97; }
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += leaf(i, n - i);
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run(60);
var result = r;`},

	{"bitops-crc", `
function run(n) {
  var crc = 0xFFFFFFFF | 0;
  for (var i = 0; i < n; i++) {
    crc = (crc ^ (i & 0xFF)) | 0;
    for (var j = 0; j < 4; j++) {
      crc = ((crc >> 1) ^ (0xEDB88320 & (0 - (crc & 1)))) | 0;
    }
  }
  return crc;
}
var r = 0;
for (var k = 0; k < 700; k++) r = run(32);
var result = r;`},

	{"string-build", `
function run(n) {
  var s = "";
  for (var i = 0; i < n; i++) s += String.fromCharCode(65 + (i % 26));
  var h = 0;
  for (var j = 0; j < s.length; j++) h = (h * 31 + s.charCodeAt(j)) | 0;
  return h;
}
var r = 0;
for (var k = 0; k < 600; k++) r = run(40);
var result = r;`},

	{"late-type-change-deopt", `
function run(a, n) {
  var s = 0;
  for (var i = 0; i < n; i++) s += a[i];
  return s;
}
var ints = [];
var mixed = [];
for (var i = 0; i < 100; i++) { ints[i] = i; mixed[i] = i + 0.5; }
var r = 0;
for (var k = 0; k < 800; k++) r = run(ints, 100);
r += run(mixed, 100);
var result = r;`},

	{"store-grows-array", `
function run(n) {
  var a = [];
  for (var i = 0; i < n; i++) a[i] = i * 2;
  var s = 0;
  for (var j = n - 1; j >= 0; j--) s += a[j];
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run(64);
var result = r;`},

	{"conditional-accumulate", `
function run(n) {
  var even = 0, odd = 0;
  for (var i = 0; i < n; i++) {
    if ((i & 1) === 0) even += i; else odd += i;
  }
  return even * 100000 + odd;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run(100);
var result = r;`},

	{"early-exit-search", `
var data = [];
for (var i = 0; i < 128; i++) data[i] = (i * 37) % 128;
function run(target) {
  for (var i = 0; i < data.length; i++) {
    if (data[i] === target) return i;
  }
  return -1;
}
var r = 0;
for (var k = 0; k < 800; k++) r += run(k % 140);
var result = r;`},

	{"int32-boundary", `
function run() {
  var x = 2147483640;
  var s = 0;
  for (var i = 0; i < 20; i++) {
    x = x + 1;
    s = s + (x % 7);
  }
  return s;
}
var r = 0;
for (var k = 0; k < 800; k++) r = run();
var result = r;`},
}

func TestDifferentialAcrossTiersAndArchs(t *testing.T) {
	for _, p := range differentialPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			// Reference: interpreter only.
			ref := NewEngine(Options{MaxTier: TierInterp})
			want, err := ref.Run(p.src)
			if err != nil {
				t.Fatalf("interpreter reference: %v", err)
			}
			// All tiers on Base.
			for _, tier := range []Tier{TierBaseline, TierDFG, TierFTL} {
				eng := NewEngine(Options{MaxTier: tier, Arch: ArchBase})
				got, err := eng.Run(p.src)
				if err != nil {
					t.Fatalf("tier %v: %v", tier, err)
				}
				if got.ToStringValue() != want.ToStringValue() {
					t.Errorf("tier %v: result %q, want %q", tier, got, want)
				}
			}
			// FTL under every architecture configuration.
			for _, arch := range AllArchs {
				eng := NewEngine(Options{MaxTier: TierFTL, Arch: arch})
				got, err := eng.Run(p.src)
				if err != nil {
					t.Fatalf("arch %v: %v", arch, err)
				}
				if got.ToStringValue() != want.ToStringValue() {
					t.Errorf("arch %v: result %q, want %q", arch, got, want)
				}
			}
		})
	}
}

// The FTL tier must actually be reached on these workloads; otherwise the
// differential test proves nothing about NoMap.
func TestDifferentialReachesFTL(t *testing.T) {
	for _, p := range differentialPrograms {
		eng := NewEngine(Options{MaxTier: TierFTL, Arch: ArchNoMap})
		if _, err := eng.Run(p.src); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if eng.Stats().FTLCalls == 0 {
			t.Errorf("%s: FTL tier never executed", p.name)
		}
	}
}

// NoMap must form and commit transactions on loop-heavy workloads.
func TestDifferentialUsesTransactions(t *testing.T) {
	counts := 0
	for _, p := range differentialPrograms {
		eng := NewEngine(Options{MaxTier: TierFTL, Arch: ArchNoMap})
		if _, err := eng.Run(p.src); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if eng.Stats().TxCommits > 0 {
			counts++
		}
	}
	if counts < len(differentialPrograms)/2 {
		t.Errorf("only %d/%d programs committed transactions", counts, len(differentialPrograms))
	}
}

func ExampleEngine() {
	eng := NewEngine(Options{Arch: ArchNoMap})
	res, err := eng.Run(`
function sum(a, n) { var s = 0; for (var i = 0; i < n; i++) s += a[i]; return s; }
var arr = [];
for (var i = 0; i < 100; i++) arr[i] = i;
var result = sum(arr, 100);
`)
	if err != nil {
		panic(err)
	}
	fmt.Println(res)
	// Output: 4950
}
