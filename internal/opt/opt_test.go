package opt_test

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ir"
	"nomap/internal/opt"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// buildIR compiles src, warms fname in the Baseline tier, and returns
// freshly built (unoptimized) IR plus the profile.
func buildIR(t *testing.T, src, fname string) *ir.Func {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	m := vm.New(cfg)
	if _, err := m.Run(src); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	fv := m.Globals().Get(fname)
	if !fv.IsCallable() {
		t.Fatalf("global %q is not a function", fname)
	}
	bcFn := fv.Object().Fn.Code.(*bytecode.Function)
	f, err := ir.Build(bcFn, m.ProfileFor(bcFn))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

func countOps(f *ir.Func) map[ir.Op]int {
	m := map[ir.Op]int{}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			m[v.Op]++
		}
	}
	return m
}

func countInLoops(t *testing.T, f *ir.Func, op ir.Op) int {
	t.Helper()
	dom := ir.BuildDom(f)
	loops := ir.FindLoops(f, dom)
	n := 0
	for _, l := range loops {
		for _, b := range l.Blocks {
			for _, v := range b.Values {
				if v.Op == op {
					n++
				}
			}
		}
	}
	return n
}

func verify(t *testing.T, f *ir.Func, stage string) {
	t.Helper()
	if err := ir.Verify(f); err != nil {
		t.Fatalf("%s: %v\n%s", stage, err, f)
	}
}

const fig4Src = `
var obj = {values: [], sum: 0};
for (var i = 0; i < 64; i++) obj.values[i] = i;
function accum() {
  obj.sum = 0;
  var len = obj.values.length;
  for (var idx = 0; idx < len; idx++) {
    obj.sum += obj.values[idx];
  }
  return obj.sum;
}
for (var k = 0; k < 40; k++) accum();
var result = obj.sum;
`

// In Base (SMPs everywhere), LICM must NOT hoist loads or checks out of the
// loop; after NoMap converts SMPs to aborts, it must.
func TestLICMBlockedBySMPs(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	before := countInLoops(t, f, ir.OpCheckShape)
	opt.GVN(f)
	opt.LICM(f)
	verify(t, f, "base LICM")
	after := countInLoops(t, f, ir.OpCheckShape)
	if after < before {
		t.Errorf("shape checks hoisted across SMPs: %d -> %d", before, after)
	}
}

func TestLICMEnabledByTransactions(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	if n := core.FormTransactions(f, core.TxLoopNest); n == 0 {
		t.Fatalf("no transactions formed:\n%s", f)
	}
	verify(t, f, "txform")
	opt.GVN(f)
	opt.LICM(f)
	verify(t, f, "licm")
	if n := countInLoops(t, f, ir.OpCheckShape); n != 0 {
		t.Errorf("%d shape checks remain in the loop after NoMap LICM:\n%s", n, f)
	}
	if n := countInLoops(t, f, ir.OpCheckArray); n != 0 {
		t.Errorf("%d array checks remain in the loop:\n%s", n, f)
	}
}

// Store promotion: the paper's Figure 4(d) — the obj.sum store must leave
// the loop once transactions are in place, and must stay put without them.
func TestStorePromotion(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	core.FormTransactions(f, core.TxLoopNest)
	opt.GVN(f)
	opt.LICM(f)
	before := countInLoops(t, f, ir.OpStoreSlot)
	opt.PromoteLoopStores(f)
	verify(t, f, "promote")
	after := countInLoops(t, f, ir.OpStoreSlot)
	if after >= before {
		t.Errorf("store not promoted: %d -> %d in-loop slot stores\n%s", before, after, f)
	}
}

func TestStorePromotionBlockedWithoutTx(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	opt.GVN(f)
	opt.LICM(f)
	before := countInLoops(t, f, ir.OpStoreSlot)
	opt.PromoteLoopStores(f)
	verify(t, f, "promote-base")
	after := countInLoops(t, f, ir.OpStoreSlot)
	if after != before {
		t.Errorf("store promotion must be illegal across SMPs: %d -> %d", before, after)
	}
}

// GVN must fold constants and deduplicate pure ops.
func TestGVNConstFold(t *testing.T) {
	src := `
function calc(x) {
  var a = 3 + 4;       // folds to 7
  var b = 3 + 4;       // same value number
  return x + a + b;
}
for (var k = 0; k < 40; k++) calc(k);
var result = calc(1);
`
	f := buildIR(t, src, "calc")
	opt.GVN(f)
	verify(t, f, "gvn")
	ops := countOps(f)
	if ops[ir.OpAddInt] > 2 {
		t.Errorf("expected constant folding + CSE to leave <=2 adds, got %d:\n%s", ops[ir.OpAddInt], f)
	}
}

// DCE must drop values kept alive only by stack maps once NoMap removes
// those stack maps.
func TestDCEWithStackMaps(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	opt.GVN(f)
	opt.DCE(f)
	verify(t, f, "dce-base")
	baseVals := countLoopVals(t, f)

	g := buildIR(t, fig4Src, "accum")
	core.FormTransactions(g, core.TxLoopNest)
	opt.GVN(g)
	opt.LICM(g)
	opt.PromoteLoopStores(g)
	opt.GVN(g)
	opt.DCE(g)
	verify(t, g, "dce-nomap")
	nomapVals := countLoopVals(t, g)
	if nomapVals >= baseVals {
		t.Errorf("NoMap pipeline should shrink the loop body: base=%d nomap=%d", baseVals, nomapVals)
	}
}

// countLoopVals counts IR values inside natural loops — the region whose
// stack maps pin values in the Base pipeline. (Whole-function totals are not
// a fair proxy: NoMap moves hoisted values into the preheader and adds
// txbegin/txend, which offset the loop-body shrink in a raw count.)
func countLoopVals(t *testing.T, f *ir.Func) int {
	t.Helper()
	dom := ir.BuildDom(f)
	loops := ir.FindLoops(f, dom)
	n := 0
	for _, l := range loops {
		for _, b := range l.Blocks {
			n += len(b.Values)
		}
	}
	return n
}

// Checks are never deleted by DCE even when Free.
func TestDCEKeepsChecks(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	core.FormTransactions(f, core.TxLoopNest)
	core.RemoveAllChecks(f)
	opt.DCE(f)
	verify(t, f, "dce-free-checks")
	found := false
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op.IsCheck() && v.Free {
				found = true
			}
		}
	}
	if !found {
		t.Error("free checks must survive DCE (they still guard semantics)")
	}
}

// LICM of pure arithmetic works even in Base (moving pure ops across SMPs
// is legal; only memory is pinned).
func TestLICMPureOpsInBase(t *testing.T) {
	src := `
function horner(n, c) {
  var s = 0;
  var scale = c * 3;        // loop-invariant pure computation
  for (var i = 0; i < n; i++) {
    s = s + scale;
  }
  return s;
}
for (var k = 0; k < 40; k++) horner(16, k);
var result = horner(16, 2);
`
	f := buildIR(t, src, "horner")
	opt.GVN(f)
	opt.LICM(f)
	verify(t, f, "licm-pure")
	// scale's multiply must be outside the loop (it was already: compiled
	// before the loop). The accumulating add must remain inside.
	if n := countInLoops(t, f, ir.OpAddInt); n == 0 {
		t.Errorf("loop-carried add must not be hoisted:\n%s", f)
	}
}

func TestSimplifyCFGMergesChains(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	opt.GVN(f)
	opt.DCE(f)
	before := len(f.Blocks)
	opt.SimplifyCFG(f)
	verify(t, f, "simplifycfg")
	after := len(f.Blocks)
	if after >= before {
		t.Errorf("no blocks merged: %d -> %d", before, after)
	}
	// Loops must survive.
	dom := ir.BuildDom(f)
	if len(ir.FindLoops(f, dom)) != 1 {
		t.Error("loop destroyed by CFG simplification")
	}
}

func TestSimplifyCFGAfterFullNoMapPipeline(t *testing.T) {
	f := buildIR(t, fig4Src, "accum")
	core.FormTransactions(f, core.TxLoopNest)
	opt.GVN(f)
	opt.LICM(f)
	opt.PromoteLoopStores(f)
	core.CombineBoundsChecks(f)
	core.RemoveOverflowChecks(f)
	opt.GVN(f)
	opt.DCE(f)
	opt.SimplifyCFG(f)
	verify(t, f, "full-pipeline+simplify")
	// Transaction markers must survive intact.
	begins, ends := 0, 0
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op == ir.OpTxBegin {
				begins++
			}
			if v.Op == ir.OpTxEnd {
				ends++
			}
		}
	}
	if begins == 0 || ends == 0 {
		t.Errorf("tx markers lost: begins=%d ends=%d", begins, ends)
	}
}
