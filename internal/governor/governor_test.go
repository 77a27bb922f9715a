package governor

import (
	"testing"

	"nomap/internal/core"
	"nomap/internal/htm"
	"nomap/internal/stats"
)

// at names a failing site the way the machine reports it.
func at(fn string, pc int, class stats.CheckClass, path string) core.Site {
	return core.Site{Fn: fn, CheckSite: core.CheckSite{PC: pc, Class: class, Path: path}}
}

func checkAbort(fn string, pc int) Transfer {
	return Transfer{Fn: fn, Aborted: true, Cause: htm.AbortCheck, Site: at(fn, pc, stats.CheckBounds, "")}
}

func capacityAbort(fn string, hadCalls bool) Transfer {
	return Transfer{Fn: fn, Aborted: true, Cause: htm.AbortCapacity, HadCalls: hadCalls}
}

// TestSMPRestoredAtBudget drives one site to the abort budget: the decisive
// transfer must flag RestoredSMP, the keep set must contain exactly that
// site, and earlier transfers must recompile without charging the budget.
func TestSMPRestoredAtBudget(t *testing.T) {
	g := New(DefaultPolicy(true))
	budget := g.Policy().CheckAbortBudget
	for i := int64(1); i < budget; i++ {
		dec := g.OnTransfer(checkAbort("f", 7))
		if !dec.Recompile || dec.ChargeDeopt || dec.RestoredSMP {
			t.Fatalf("abort %d: got %+v, want recompile only", i, dec)
		}
		if g.KeepSet("f") != nil {
			t.Fatalf("abort %d: keep set populated before budget", i)
		}
	}
	dec := g.OnTransfer(checkAbort("f", 7))
	if !dec.RestoredSMP || !dec.Recompile || dec.ChargeDeopt {
		t.Fatalf("budget transfer: got %+v, want RestoredSMP", dec)
	}
	keep := g.KeepSet("f")
	site := core.CheckSite{PC: 7, Class: stats.CheckBounds}
	if len(keep) != 1 || !keep[site] {
		t.Fatalf("keep set = %v, want exactly %v", keep, site)
	}
	// The level was never touched: check aborts are a site problem, not a
	// footprint problem.
	if g.LevelFor("f") != core.TxLoopNest {
		t.Errorf("level = %v after check storm, want loop-nest", g.LevelFor("f"))
	}
}

// TestKeptSiteDeoptIsFree verifies the governed steady state: an OSR exit at
// a restored-SMP site neither recompiles nor charges the deopt budget.
func TestKeptSiteDeoptIsFree(t *testing.T) {
	g := New(DefaultPolicy(true))
	for i := int64(0); i < g.Policy().CheckAbortBudget; i++ {
		g.OnTransfer(checkAbort("f", 7))
	}
	dec := g.OnTransfer(Transfer{Fn: "f", Site: at("f", 7, stats.CheckBounds, "")})
	if dec.Recompile || dec.ChargeDeopt || len(dec.Drop) != 0 {
		t.Fatalf("kept-site deopt: got %+v, want no-op decision", dec)
	}
	// An exit at a different, un-restored site keeps the legacy semantics.
	dec = g.OnTransfer(Transfer{Fn: "f", Site: at("f", 9, stats.CheckType, "")})
	if !dec.Recompile || !dec.ChargeDeopt {
		t.Fatalf("plain deopt: got %+v, want charge+recompile", dec)
	}
}

// TestCalleeSiteAbort: a check failing in a callee running inside the
// caller's transaction must charge the callee's site ledger and drop both
// functions' code when the SMP is restored.
func TestCalleeSiteAbort(t *testing.T) {
	g := New(DefaultPolicy(true))
	tr := Transfer{Fn: "caller", Aborted: true, Cause: htm.AbortCheck, Site: at("callee", 3, stats.CheckBounds, "")}
	var dec Decision
	for i := int64(0); i < g.Policy().CheckAbortBudget; i++ {
		dec = g.OnTransfer(tr)
	}
	if !dec.RestoredSMP {
		t.Fatalf("budget transfer: got %+v, want RestoredSMP", dec)
	}
	if len(dec.Drop) != 2 || dec.Drop[0] != "caller" || dec.Drop[1] != "callee" {
		t.Fatalf("drop list = %v, want [caller callee]", dec.Drop)
	}
	if g.KeepSet("callee") == nil || g.KeepSet("caller") != nil {
		t.Fatal("keep set must land on the callee, not the caller")
	}
}

// TestIrrevocablePinsTxOff: I/O in a hot loop removes transactions for good
// without touching the deopt budget; clean runs never probe afterwards.
func TestIrrevocablePinsTxOff(t *testing.T) {
	g := New(DefaultPolicy(true))
	dec := g.OnTransfer(Transfer{Fn: "f", Aborted: true, Cause: htm.AbortIrrevocable})
	if !dec.Recompile || dec.ChargeDeopt {
		t.Fatalf("irrevocable: got %+v, want uncharged recompile", dec)
	}
	if g.LevelFor("f") != core.TxOff {
		t.Fatalf("level = %v, want off", g.LevelFor("f"))
	}
	for i := 0; i < 1000; i++ {
		if dec := g.OnClean("f", 0); dec.Recompile {
			t.Fatalf("clean call %d: pinned function started a probe", i)
		}
	}
	if g.LevelFor("f") != core.TxOff {
		t.Errorf("level drifted to %v while pinned", g.LevelFor("f"))
	}
}

// TestCapacityRetreatLadder mirrors core.TxLevel.Lower through the governor.
func TestCapacityRetreatLadder(t *testing.T) {
	g := New(DefaultPolicy(true))
	want := []core.TxLevel{core.TxInnermost, core.TxTiled, core.TxOff, core.TxOff}
	for i, lvl := range want {
		g.OnTransfer(capacityAbort("f", false))
		if got := g.LevelFor("f"); got != lvl {
			t.Fatalf("retreat %d: level = %v, want %v", i+1, got, lvl)
		}
	}
}

// TestHadCallsPins: §V-C blames the callee for an overflow in a
// call-containing transaction; tiling cannot bound a callee's footprint, so
// the drop to TxOff is permanent (no probation).
func TestHadCallsPins(t *testing.T) {
	g := New(DefaultPolicy(true))
	g.OnTransfer(capacityAbort("f", true))
	if g.LevelFor("f") != core.TxOff {
		t.Fatalf("level = %v, want off", g.LevelFor("f"))
	}
	for i := 0; i < 500; i++ {
		if dec := g.OnClean("f", 1); dec.Recompile {
			t.Fatal("call-containing overflow must pin, not probe")
		}
	}
}

// pathAbort is a check abort at an inlined site: same bytecode pc and class
// as a root-code site could have, but carrying the inline path that names
// which flattened activation the failing check came from.
func pathAbort(fn string, pc int, path string) Transfer {
	return Transfer{Fn: fn, Aborted: true, Cause: htm.AbortCheck, Site: at(fn, pc, stats.CheckBounds, path)}
}

// TestInlinePathSiteLedgers: sites that differ only in inline path are
// distinct ledgers. The same bytecode pc can exist once in the root code
// and once per flattened activation (the callee's pc space is embedded
// whole), so folding them together would let an abort storm in one
// activation restore the SMP of an innocent same-pc site — or worse, split
// one storm across ledgers and never reach the budget.
func TestInlinePathSiteLedgers(t *testing.T) {
	g := New(DefaultPolicy(true))
	budget := g.Policy().CheckAbortBudget
	// Drive the inlined site to its budget while the same-pc root site and
	// a sibling activation's site each take a single abort.
	for i := int64(1); i < budget; i++ {
		g.OnTransfer(pathAbort("f", 7, "g@5"))
	}
	g.OnTransfer(checkAbort("f", 7))        // root-code site, same pc
	g.OnTransfer(pathAbort("f", 7, "g@11")) // same callee, other call site
	if g.KeepSet("f") != nil {
		t.Fatal("SMP restored before any single path-keyed site reached the budget")
	}
	dec := g.OnTransfer(pathAbort("f", 7, "g@5"))
	if !dec.RestoredSMP {
		t.Fatalf("budget transfer: got %+v, want RestoredSMP", dec)
	}
	keep := g.KeepSet("f")
	site := core.CheckSite{PC: 7, Class: stats.CheckBounds, Path: "g@5"}
	if len(keep) != 1 || !keep[site] {
		t.Fatalf("keep set = %v, want exactly %v", keep, site)
	}

	// Export must carry the paths; restoring into a fresh governor must
	// reproduce the keep set and make the same next decision.
	fresh := New(DefaultPolicy(true))
	fresh.Restore(g.Export())
	fk := fresh.KeepSet("f")
	if len(fk) != 1 || !fk[site] {
		t.Fatalf("restored keep set = %v, want exactly %v", fk, site)
	}
	d1 := g.OnTransfer(Transfer{Fn: "f", Site: at("f", 7, stats.CheckBounds, "g@5")})
	d2 := fresh.OnTransfer(Transfer{Fn: "f", Site: at("f", 7, stats.CheckBounds, "g@5")})
	if d1.Recompile || d1.ChargeDeopt || d2.Recompile || d2.ChargeDeopt {
		t.Fatalf("kept inlined site's deopt not free: donor %+v, restored %+v", d1, d2)
	}

	// Reset must clear the path-keyed ledgers and keep sets like any other.
	g.Reset()
	if g.KeepSet("f") != nil || len(g.Export()) != 0 {
		t.Fatal("Reset left inline-path state behind")
	}
}

// TestProbationConfirm walks the full re-promotion arc: demotion, a clean
// window earning a probe, and a clean probationary window confirming the
// higher level.
func TestProbationConfirm(t *testing.T) {
	g := New(DefaultPolicy(true))
	w := g.Policy().RepromoteWindow
	g.OnTransfer(capacityAbort("f", false)) // loop-nest -> innermost
	var dec Decision
	for i := int64(0); i < w; i++ {
		if dec.Recompile {
			t.Fatal("probe started before the window filled")
		}
		dec = g.OnClean("f", 1)
	}
	if !dec.Recompile || len(dec.Drop) != 1 || dec.Drop[0] != "f" {
		t.Fatalf("window-filling clean run: got %+v, want probe recompile", dec)
	}
	if g.LevelFor("f") != core.TxLoopNest {
		t.Fatalf("probe level = %v, want loop-nest", g.LevelFor("f"))
	}
	// The probe itself must survive a full window before it is proven.
	for i := int64(0); i < w; i++ {
		g.OnClean("f", 1)
	}
	rep := g.Export()
	if len(rep) != 1 || rep[0].Probing || rep[0].Proven != core.TxLoopNest {
		t.Fatalf("after clean probe window: %+v, want proven loop-nest", rep)
	}
}

// TestProbeFailureBacksOff: a capacity abort mid-probation falls back to the
// proven level and doubles the window (hysteresis).
func TestProbeFailureBacksOff(t *testing.T) {
	pol := DefaultPolicy(true)
	g := New(pol)
	g.OnTransfer(capacityAbort("f", false)) // -> innermost
	for i := int64(0); i < pol.RepromoteWindow; i++ {
		g.OnClean("f", 1)
	}
	if g.LevelFor("f") != core.TxLoopNest {
		t.Fatal("probe did not start")
	}
	dec := g.OnTransfer(capacityAbort("f", false))
	if !dec.Recompile || dec.ChargeDeopt {
		t.Fatalf("probe failure: got %+v, want uncharged recompile", dec)
	}
	if g.LevelFor("f") != core.TxInnermost {
		t.Fatalf("level = %v after failed probe, want proven innermost", g.LevelFor("f"))
	}
	rep := g.Export()[0]
	if rep.Failed != 1 || rep.Window != pol.RepromoteWindow*pol.ProbationBackoff {
		t.Fatalf("after failed probe: failed=%d window=%d, want 1 and %d",
			rep.Failed, rep.Window, pol.RepromoteWindow*pol.ProbationBackoff)
	}
}

// TestHysteresisConverges: a workload whose footprint genuinely exceeds the
// higher level fails every probe; the governor must pin after MaxProbations
// and never oscillate again — the total number of probes is finite.
func TestHysteresisConverges(t *testing.T) {
	pol := DefaultPolicy(true)
	g := New(pol)
	g.OnTransfer(capacityAbort("f", false)) // -> innermost
	probes := 0
	for i := 0; i < 100000; i++ {
		if dec := g.OnClean("f", 1); dec.Recompile {
			probes++
			// The probe immediately capacity-aborts: the footprint is real.
			g.OnTransfer(capacityAbort("f", false))
		}
	}
	if probes != pol.MaxProbations {
		t.Fatalf("probes = %d, want exactly MaxProbations = %d", probes, pol.MaxProbations)
	}
	rep := g.Export()[0]
	if !rep.Pinned || rep.Level != core.TxInnermost {
		t.Fatalf("after convergence: %+v, want pinned at innermost", rep)
	}
}

// TestPromotedRegressionCountsTowardPinning: hysteresis also applies when a
// confirmed promotion later regresses — phase flapping converges.
func TestPromotedRegressionCountsTowardPinning(t *testing.T) {
	pol := DefaultPolicy(true)
	g := New(pol)
	g.OnTransfer(capacityAbort("f", false)) // -> innermost
	cycle := func() (probed, confirmed bool) {
		for i := 0; i < 100000; i++ {
			if dec := g.OnClean("f", 1); dec.Recompile {
				probed = true
				break
			}
			if g.Export()[0].Pinned {
				return false, false
			}
		}
		if !probed {
			return false, false
		}
		for i := int64(0); i < g.Export()[0].Window; i++ {
			g.OnClean("f", 1)
		}
		confirmed = !g.Export()[0].Probing
		// The big phase returns: the confirmed promotion regresses.
		g.OnTransfer(capacityAbort("f", false))
		return probed, confirmed
	}
	flaps := 0
	for {
		probed, confirmed := cycle()
		if !probed {
			break
		}
		if !confirmed {
			t.Fatal("clean window did not confirm the probe")
		}
		flaps++
		if flaps > pol.MaxProbations {
			t.Fatalf("flapped %d times, want pinning at %d regressions", flaps, pol.MaxProbations)
		}
	}
	if !g.Export()[0].Pinned {
		t.Fatal("phase-flapping function never pinned")
	}
}

// TestInitialRetreatDoesNotCountAsRegression: walking down the ladder before
// any promotion must not consume the hysteresis budget.
func TestInitialRetreatDoesNotCountAsRegression(t *testing.T) {
	g := New(DefaultPolicy(true))
	g.OnTransfer(capacityAbort("f", false))
	g.OnTransfer(capacityAbort("f", false))
	g.OnTransfer(capacityAbort("f", false))
	rep := g.Export()[0]
	if rep.Failed != 0 || rep.Pinned {
		t.Fatalf("initial retreat consumed hysteresis budget: %+v", rep)
	}
}

// TestTxOffEarnsProbeFromCleanCalls: a TxOff function commits nothing, yet
// clean FTL calls must still accumulate probe progress (units floor at 1).
func TestTxOffEarnsProbeFromCleanCalls(t *testing.T) {
	pol := DefaultPolicy(true)
	g := New(pol)
	g.OnTransfer(capacityAbort("f", false)) // innermost
	g.OnTransfer(capacityAbort("f", false)) // tiled
	g.OnTransfer(capacityAbort("f", false)) // off
	if g.LevelFor("f") != core.TxOff {
		t.Fatal("setup: expected TxOff")
	}
	probed := false
	for i := int64(0); i < pol.RepromoteWindow; i++ {
		if g.OnClean("f", 0).Recompile {
			probed = true
			break
		}
	}
	if !probed {
		t.Fatal("TxOff function earned no probe from clean calls")
	}
	if g.LevelFor("f") != core.TxTiled {
		t.Errorf("probe level = %v, want tiled (ROT ladder)", g.LevelFor("f"))
	}
}

// TestRaiseMirrorsLadder covers both ladder shapes.
func TestRaiseMirrorsLadder(t *testing.T) {
	cases := []struct {
		from        core.TxLevel
		allowTiling bool
		want        core.TxLevel
	}{
		{core.TxOff, true, core.TxTiled},
		{core.TxOff, false, core.TxInnermost},
		{core.TxTiled, true, core.TxInnermost},
		{core.TxTiled, false, core.TxInnermost},
		{core.TxInnermost, true, core.TxLoopNest},
		{core.TxInnermost, false, core.TxLoopNest},
		{core.TxLoopNest, true, core.TxLoopNest},
		{core.TxLoopNest, false, core.TxLoopNest},
	}
	for _, c := range cases {
		if got := raise(c.from, c.allowTiling); got != c.want {
			t.Errorf("raise(%v, tiling=%v) = %v, want %v", c.from, c.allowTiling, got, c.want)
		}
	}
}

// TestLedgerDecay: clean progress halves site abort counts, and emptied
// ledgers are dropped — unless the site's SMP was restored, which must
// survive decay so the keep set is stable across recompiles.
func TestLedgerDecay(t *testing.T) {
	pol := DefaultPolicy(true)
	g := New(pol)
	g.OnTransfer(checkAbort("f", 7))
	g.OnTransfer(checkAbort("f", 7))
	g.OnClean("f", pol.DecayWindow) // one decay: 2 -> 1
	g.OnTransfer(checkAbort("f", 7))
	g.OnTransfer(checkAbort("f", 7))
	// 3 aborts on the books < budget 4: decay kept a benign site below the
	// restoration threshold even though 4 raw aborts occurred.
	if g.KeepSet("f") != nil {
		t.Fatal("decayed site still crossed the budget")
	}
	// Two more decays empty the ledger entirely.
	g.OnClean("f", pol.DecayWindow)
	g.OnClean("f", pol.DecayWindow)
	if sites := g.Export()[0].Sites; len(sites) != 0 {
		t.Fatalf("emptied ledger not dropped: %+v", sites)
	}
	// A kept site survives any amount of decay.
	for i := int64(0); i < pol.CheckAbortBudget; i++ {
		g.OnTransfer(checkAbort("f", 9))
	}
	for i := 0; i < 10; i++ {
		g.OnClean("f", pol.DecayWindow)
	}
	if len(g.KeepSet("f")) != 1 {
		t.Fatal("restored SMP lost to ledger decay")
	}
}

// TestReset drops every ledger and level.
func TestReset(t *testing.T) {
	g := New(DefaultPolicy(true))
	g.OnTransfer(capacityAbort("f", false))
	for i := int64(0); i < g.Policy().CheckAbortBudget; i++ {
		g.OnTransfer(checkAbort("f", 7))
		g.OnTransfer(pathAbort("f", 7, "g@5")) // inline-path ledgers reset too
	}
	g.Reset()
	if g.LevelFor("f") != core.TxLoopNest || g.KeepSet("f") != nil || len(g.Export()) != 0 {
		t.Fatal("Reset left state behind")
	}
}

// TestReportDeterministic: two identical event sequences must render
// identical reports (map iteration must not leak into the output order).
func TestReportDeterministic(t *testing.T) {
	build := func() *Governor {
		g := New(DefaultPolicy(true))
		for _, fn := range []string{"zeta", "alpha", "mid"} {
			g.OnTransfer(checkAbort(fn, 5))
			g.OnTransfer(checkAbort(fn, 3))
			g.OnTransfer(capacityAbort(fn, false))
		}
		return g
	}
	a, b := build().Export(), build().Export()
	if len(a) != 3 || a[0].Fn != "alpha" || a[1].Fn != "mid" || a[2].Fn != "zeta" {
		t.Fatalf("report order: %+v", a)
	}
	for i := range a {
		if a[i].Fn != b[i].Fn || len(a[i].Sites) != len(b[i].Sites) {
			t.Fatalf("non-deterministic report: %+v vs %+v", a[i], b[i])
		}
		for j := range a[i].Sites {
			if a[i].Sites[j] != b[i].Sites[j] {
				t.Fatalf("non-deterministic site order: %+v vs %+v", a[i].Sites, b[i].Sites)
			}
		}
	}
}

// TestExportRestoreRoundTrip: Export into a fresh governor must reproduce
// the donor's decision state exactly — levels, keep sets, ledgers, probe
// state — which is what the serving layer's warm-start snapshots rely on.
func TestExportRestoreRoundTrip(t *testing.T) {
	g := New(DefaultPolicy(true))
	// Drive varied state: a restored SMP on f, a capacity retreat on h, and
	// some clean-run progress.
	for i := int64(0); i < g.Policy().CheckAbortBudget; i++ {
		g.OnTransfer(checkAbort("f", 7))
	}
	g.OnTransfer(capacityAbort("h", false))
	g.OnTransfer(checkAbort("h", 3))
	g.OnClean("f", 5)

	snap := g.Export()
	if len(snap) == 0 {
		t.Fatal("export produced no state")
	}

	fresh := New(DefaultPolicy(true))
	fresh.Restore(snap)

	for _, fn := range []string{"f", "h"} {
		if got, want := fresh.LevelFor(fn), g.LevelFor(fn); got != want {
			t.Errorf("%s: restored level %v, want %v", fn, got, want)
		}
		gk, fk := g.KeepSet(fn), fresh.KeepSet(fn)
		if len(gk) != len(fk) {
			t.Fatalf("%s: keep sets differ: %v vs %v", fn, gk, fk)
		}
		for s := range gk {
			if !fk[s] {
				t.Errorf("%s: restored keep set missing %v", fn, s)
			}
		}
	}

	// Re-exporting the restored governor must be byte-identical, and the
	// restored governor must make the same next decision as the donor.
	snap2 := fresh.Export()
	if len(snap2) != len(snap) {
		t.Fatalf("re-export length %d, want %d", len(snap2), len(snap))
	}
	for i := range snap {
		a, b := snap[i], snap2[i]
		if a.Fn != b.Fn || a.Level != b.Level || a.Proven != b.Proven ||
			a.Probing != b.Probing || a.Pinned != b.Pinned || a.Promoted != b.Promoted ||
			a.Failed != b.Failed || a.Window != b.Window || a.Progress != b.Progress ||
			a.SinceDecay != b.SinceDecay || len(a.Sites) != len(b.Sites) {
			t.Fatalf("re-export differs at %s:\n%+v\nvs\n%+v", a.Fn, a, b)
		}
		for j := range a.Sites {
			if a.Sites[j] != b.Sites[j] {
				t.Fatalf("%s site %d differs: %+v vs %+v", a.Fn, j, a.Sites[j], b.Sites[j])
			}
		}
	}
	d1 := g.OnTransfer(checkAbort("h", 3))
	d2 := fresh.OnTransfer(checkAbort("h", 3))
	if d1.Recompile != d2.Recompile || d1.ChargeDeopt != d2.ChargeDeopt ||
		d1.RestoredSMP != d2.RestoredSMP || len(d1.Drop) != len(d2.Drop) {
		t.Errorf("post-restore decisions diverge: %+v vs %+v", d1, d2)
	}

	// A snapshot must be inert state: restoring must not alias the donor.
	fresh.OnTransfer(capacityAbort("f", true))
	if g.LevelFor("f") != core.TxLoopNest {
		t.Error("mutating the restored governor reached back into the donor")
	}
}
