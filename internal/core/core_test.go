package core_test

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ir"
	"nomap/internal/opt"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
)

func buildIR(t *testing.T, src, fname string) *ir.Func {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	m := vm.New(cfg)
	if _, err := m.Run(src); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	fv := m.Globals().Get(fname)
	bcFn := fv.Object().Fn.Code.(*bytecode.Function)
	f, err := ir.Build(bcFn, m.ProfileFor(bcFn))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

const sumSrc = `
var arr = [];
for (var i = 0; i < 64; i++) arr[i] = i;
function sum(n) {
  var s = 0;
  for (var j = 0; j < n; j++) s += arr[j];
  return s;
}
for (var k = 0; k < 40; k++) sum(64);
var result = sum(64);
`

func opsOf(f *ir.Func) map[ir.Op]int {
	m := map[ir.Op]int{}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			m[v.Op]++
		}
	}
	return m
}

func TestFormTransactionsInsertsMarkers(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	n := core.FormTransactions(f, core.TxLoopNest)
	if n != 1 {
		t.Fatalf("formed %d transactions, want 1:\n%s", n, f)
	}
	if !f.TxAware {
		t.Error("TxAware must be set")
	}
	ops := opsOf(f)
	if ops[ir.OpTxBegin] != 1 || ops[ir.OpTxEnd] == 0 {
		t.Errorf("tx markers: begin=%d end=%d", ops[ir.OpTxBegin], ops[ir.OpTxEnd])
	}
	if ops[ir.OpTxTile] != 0 {
		t.Error("loop-nest level must not tile (tiles only in the retreat level)")
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestFormTransactionsTiled(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	core.FormTransactions(f, core.TxTiled)
	ops := opsOf(f)
	if ops[ir.OpTxTile] == 0 {
		t.Error("tiled level must insert TxTile at back edges")
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestFormTransactionsOff(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	if n := core.FormTransactions(f, core.TxOff); n != 0 {
		t.Errorf("TxOff formed %d transactions", n)
	}
	if f.TxAware {
		t.Error("TxAware must stay false")
	}
}

func TestSMPToAbortConversion(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	// Before: every check has a stack map.
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op.IsCheck() && v.Deopt == nil {
				t.Fatalf("check v%d has no SMP before transformation", v.ID)
			}
		}
	}
	core.FormTransactions(f, core.TxLoopNest)
	dom := ir.BuildDom(f)
	loops := ir.FindLoops(f, dom)
	for _, l := range loops {
		for _, b := range l.Blocks {
			for _, v := range b.Values {
				if v.Op.IsCheck() && v.Deopt != nil {
					t.Errorf("in-transaction check v%d still carries an SMP", v.ID)
				}
			}
		}
	}
}

func TestTxBeginRecoveryMap(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	core.FormTransactions(f, core.TxLoopNest)
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op == ir.OpTxBegin {
				if v.Deopt == nil || len(v.Deopt.Entries) == 0 {
					t.Fatal("TxBegin must carry a recovery stack map (Entry3)")
				}
				// Recovery entries must not reference loop-header phis
				// directly (they must be resolved along the preheader edge,
				// so the whole loop re-executes on abort).
				dom := ir.BuildDom(f)
				loops := ir.FindLoops(f, dom)
				for _, e := range v.Deopt.Entries {
					for _, l := range loops {
						if e.Val.Op == ir.OpPhi && e.Val.Block == l.Header {
							t.Errorf("recovery map references loop phi v%d", e.Val.ID)
						}
					}
				}
			}
		}
	}
}

func TestBoundsCombining(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	core.FormTransactions(f, core.TxLoopNest)
	opt.GVN(f)
	opt.LICM(f)
	dom := ir.BuildDom(f)
	loops := ir.FindLoops(f, dom)
	inLoop := func() int {
		n := 0
		for _, l := range loops {
			for _, b := range l.Blocks {
				for _, v := range b.Values {
					if v.Op == ir.OpCheckBounds {
						n++
					}
				}
			}
		}
		return n
	}
	before := inLoop()
	if before == 0 {
		t.Fatalf("expected an in-loop bounds check:\n%s", f)
	}
	removed := core.CombineBoundsChecks(f)
	if removed == 0 {
		t.Fatalf("no bounds checks combined:\n%s", f)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v\n%s", err, f)
	}
	if got := inLoop(); got != 0 {
		t.Errorf("%d bounds checks remain in the loop", got)
	}
	// The sunk check sits before the TxEnd in the exit block.
	found := false
	for _, b := range f.Blocks {
		for i, v := range b.Values {
			if v.Op == ir.OpCheckBounds {
				for j := i + 1; j < len(b.Values); j++ {
					if b.Values[j].Op == ir.OpTxEnd {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Errorf("sunk bounds check must precede TxEnd:\n%s", f)
	}
}

func TestBoundsCombiningRequiresTransactions(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	// Without transactions every check keeps its SMP; combining must refuse.
	if n := core.CombineBoundsChecks(f); n != 0 {
		t.Errorf("combined %d checks without transactions (unsound)", n)
	}
}

func TestRemoveOverflowChecks(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	core.FormTransactions(f, core.TxLoopNest)
	n := core.RemoveOverflowChecks(f)
	if n == 0 {
		t.Fatalf("no overflow checks removed:\n%s", f)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op == ir.OpCheckOverflow && v.Deopt == nil && !v.Free {
				t.Errorf("in-tx overflow check v%d not freed", v.ID)
			}
			if v.Op == ir.OpCheckOverflow && v.Deopt != nil && v.Free {
				t.Errorf("out-of-tx overflow check v%d wrongly freed", v.ID)
			}
		}
	}
}

func TestRemoveAllChecks(t *testing.T) {
	f := buildIR(t, sumSrc, "sum")
	core.FormTransactions(f, core.TxLoopNest)
	core.RemoveAllChecks(f)
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op.IsCheck() && v.Deopt == nil && !v.Free {
				t.Errorf("in-tx check v%d (%v, class %v) not freed", v.ID, v.Op, stats.CheckClass(v.Check))
			}
		}
	}
}

// TestTxLevelLadder exhaustively covers Lower over every (level, hadCalls,
// allowTiling) combination: the §V-C retreat ladder, the straight-to-off
// rule for call-containing transactions, and the RTM ladder that skips the
// tiled level.
func TestTxLevelLadder(t *testing.T) {
	cases := []struct {
		from     core.TxLevel
		hadCalls bool
		tiling   bool
		want     core.TxLevel
	}{
		// ROT ladder (tiling allowed): loop-nest → innermost → tiled → off.
		{core.TxLoopNest, false, true, core.TxInnermost},
		{core.TxInnermost, false, true, core.TxTiled},
		{core.TxTiled, false, true, core.TxOff},
		{core.TxOff, false, true, core.TxOff},
		// RTM ladder (no tiling): loop-nest → innermost → off.
		{core.TxLoopNest, false, false, core.TxInnermost},
		{core.TxInnermost, false, false, core.TxOff},
		{core.TxTiled, false, false, core.TxOff},
		{core.TxOff, false, false, core.TxOff},
		// Calls: §V-C blames the callee, straight to off from every level.
		{core.TxLoopNest, true, true, core.TxOff},
		{core.TxInnermost, true, true, core.TxOff},
		{core.TxTiled, true, true, core.TxOff},
		{core.TxOff, true, true, core.TxOff},
		{core.TxLoopNest, true, false, core.TxOff},
		{core.TxInnermost, true, false, core.TxOff},
		{core.TxTiled, true, false, core.TxOff},
		{core.TxOff, true, false, core.TxOff},
	}
	for _, c := range cases {
		if got := c.from.Lower(c.hadCalls, c.tiling); got != c.want {
			t.Errorf("Lower(%v, calls=%v, tiling=%v) = %v, want %v",
				c.from, c.hadCalls, c.tiling, got, c.want)
		}
	}
	// Lower is monotone: no input ever raises the level. (Re-promotion is the
	// governor's job, via its probationary windows — never Lower's.)
	for _, l := range []core.TxLevel{core.TxLoopNest, core.TxInnermost, core.TxTiled, core.TxOff} {
		for _, hadCalls := range []bool{false, true} {
			for _, tiling := range []bool{false, true} {
				if got := l.Lower(hadCalls, tiling); got < l {
					t.Errorf("Lower(%v, calls=%v, tiling=%v) = %v raised the level",
						l, hadCalls, tiling, got)
				}
			}
		}
	}
}

// TestFormTransactionsKeeping: a site in the governor keep set must retain
// its SMP inside the transaction while every other check converts to an
// abort, so a persistent failure deopts surgically instead of aborting.
func TestFormTransactionsKeeping(t *testing.T) {
	// Locate the bounds check the keep set will target.
	probe := buildIR(t, sumSrc, "sum")
	var site core.CheckSite
	found := false
	for _, b := range probe.Blocks {
		for _, v := range b.Values {
			if v.Op == ir.OpCheckBounds {
				site = core.CheckSite{PC: v.BCPos, Class: v.Check}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no bounds check in sum")
	}

	f := buildIR(t, sumSrc, "sum")
	if n := core.FormTransactionsKeeping(f, core.TxLoopNest, core.KeepSet{site: true}); n != 1 {
		t.Fatalf("formed %d transactions, want 1", n)
	}
	kept, converted := 0, 0
	dom := ir.BuildDom(f)
	for _, l := range ir.FindLoops(f, dom) {
		for _, b := range l.Blocks {
			for _, v := range b.Values {
				if !v.Op.IsCheck() {
					continue
				}
				if (core.CheckSite{PC: v.BCPos, Class: v.Check}) == site {
					if v.Deopt == nil {
						t.Errorf("kept check v%d lost its SMP", v.ID)
					}
					kept++
				} else {
					if v.Deopt != nil {
						t.Errorf("non-kept check v%d retained an SMP", v.ID)
					}
					converted++
				}
			}
		}
	}
	if kept == 0 {
		t.Error("keep-set site not found inside the transaction")
	}
	if converted == 0 {
		t.Error("no checks converted: keep set must be surgical, not global")
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestNestedLoopSelection(t *testing.T) {
	src := `
var m = [];
for (var i = 0; i < 8; i++) { m[i] = []; for (var j = 0; j < 8; j++) m[i][j] = i + j; }
function total(n) {
  var s = 0;
  for (var i = 0; i < n; i++)
    for (var j = 0; j < n; j++)
      s += m[i][j];
  return s;
}
for (var k = 0; k < 40; k++) total(8);
var result = total(8);
`
	f := buildIR(t, src, "total")
	if n := core.FormTransactions(f, core.TxLoopNest); n != 1 {
		t.Errorf("loop-nest level: %d transactions, want 1 (outermost only)", n)
	}
	g := buildIR(t, src, "total")
	if n := core.FormTransactions(g, core.TxInnermost); n != 1 {
		t.Errorf("innermost level: %d transactions, want 1 (the inner loop)", n)
	}
	// The innermost selection must wrap the deeper loop.
	dom := ir.BuildDom(g)
	loops := ir.FindLoops(g, dom)
	for _, l := range loops {
		hasBegin := false
		if p := l.Preheader(); p != nil {
			for _, v := range p.Values {
				if v.Op == ir.OpTxBegin {
					hasBegin = true
				}
			}
		}
		if l.Depth == 2 && !hasBegin {
			t.Error("inner loop should carry the transaction at TxInnermost")
		}
		if l.Depth == 1 && hasBegin {
			t.Error("outer loop should not carry the transaction at TxInnermost")
		}
	}
}
