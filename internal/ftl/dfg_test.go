package ftl_test

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/ftl"
	"nomap/internal/harness"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// The DFG tier (paper Figure 2) sits between Baseline and FTL: speculative
// SSA with local cleanups, but no transaction formation and no SMP-removing
// phases — every check keeps a deopt recovery path, which is exactly what
// limits its optimization scope (§III-A1). These tests pin that contract and
// the tier-transfer behaviour around it.

const hotSrc = `
var a = [];
for (var i = 0; i < 16; i++) a[i] = i * 3;
var o = {acc: 0};
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = (s + a[i % 16]) | 0;
    o.acc = o.acc + 1;
  }
  return s + o.acc;
}
`

// compileHot drives a real engine until run() reaches the DFG tier and
// captures the compiled IR through the backend's pass hook.
func compileHot(t *testing.T, arch vm.Arch) []*ir.Func {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = profile.TierDFG
	cfg.Policy = harness.FastPolicy()
	v := vm.New(cfg)
	backend := jit.Attach(v)
	var funcs []*ir.Func
	backend.SetPassHook(func(pass string, f *ir.Func) {
		if pass == "dfg" {
			funcs = append(funcs, f)
		}
	})
	if _, err := v.Run(hotSrc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := v.CallGlobal("run", value.Int(32)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Counters().DFGCalls == 0 {
		t.Fatal("run() never executed in the DFG tier")
	}
	if len(funcs) == 0 {
		t.Fatal("no DFG compilation captured")
	}
	return funcs
}

func TestCompiledCodeVerifies(t *testing.T) {
	for _, f := range compileHot(t, vm.ArchNoMap) {
		if err := ir.Verify(f); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestNoTransactionFormation(t *testing.T) {
	// Transaction formation is FTL-only, even under transactional archs.
	for _, f := range compileHot(t, vm.ArchNoMap) {
		for _, b := range f.Blocks {
			for _, v := range b.Values {
				if v.Op == ir.OpTxBegin || v.Op == ir.OpTxEnd || v.Op == ir.OpTxTile {
					t.Errorf("%s: DFG code contains %v", f.Name, v.Op)
				}
			}
		}
	}
}

func TestEveryCheckKeepsItsSMP(t *testing.T) {
	// No DFG phase may strip a stack map point: a check without Deopt can
	// only recover by transactional abort, which the DFG tier cannot do.
	checks := 0
	for _, f := range compileHot(t, vm.ArchNoMap) {
		for _, b := range f.Blocks {
			for _, v := range b.Values {
				if v.Op.IsCheck() && !v.Free {
					checks++
					if v.Deopt == nil {
						t.Errorf("%s: %v (v%d) lost its stack map", f.Name, v.Op, v.ID)
					}
				}
			}
		}
	}
	if checks == 0 {
		t.Fatal("hot loop compiled without a single speculation check")
	}
}

func TestCompileDirect(t *testing.T) {
	// CompileDFG on a cold profile (no feedback) must still produce
	// verifiable code: speculation is simply not attempted.
	prog, err := parser.Parse(hotSrc)
	if err != nil {
		t.Fatal(err)
	}
	top, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	var runFn *bytecode.Function
	for _, fn := range top.Funcs {
		if fn.Name == "run" {
			runFn = fn
		}
	}
	if runFn == nil {
		t.Fatal("run not found in compiled unit")
	}
	f, err := ftl.CompileDFG(runFn, profile.New(runFn), ftl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestTierTransferDifferential checks the DFG tier end to end: results match
// the interpreter both in steady state and across a deopt-inducing type
// change, and execution actually transfers back up after the deopt.
func TestTierTransferDifferential(t *testing.T) {
	run := func(maxTier profile.Tier) ([]string, int64, int64) {
		cfg := vm.DefaultConfig()
		cfg.Arch = vm.ArchNoMap
		cfg.MaxTier = maxTier
		cfg.Policy = harness.FastPolicy()
		v := vm.New(cfg)
		jit.Attach(v)
		if _, err := v.Run(hotSrc); err != nil {
			t.Fatal(err)
		}
		var out []string
		call := func() {
			r, err := v.CallGlobal("run", value.Int(32))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.ToStringValue())
		}
		for i := 0; i < 40; i++ {
			call()
		}
		// Poison the array: the next DFG execution must deopt, re-profile,
		// and the function must eventually tier back up.
		if _, err := v.Run(`a[3] = 0.25;`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			call()
		}
		return out, v.Counters().DFGCalls, v.Counters().Deopts
	}
	want, _, _ := run(profile.TierInterp)
	got, dfgCalls, deopts := run(profile.TierDFG)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: DFG %q vs interp %q", i, got[i], want[i])
		}
	}
	if dfgCalls == 0 {
		t.Error("no DFG-tier calls executed")
	}
	if deopts == 0 {
		t.Error("type poison caused no deopt")
	}
	// After MaxDeopts the policy may pin the function lower, but with one
	// poison event it must return to the DFG tier for steady state.
	_, dfgCallsAfter, _ := run(profile.TierDFG)
	if dfgCallsAfter == 0 {
		t.Error("function never re-entered DFG tier after deopt")
	}
}
