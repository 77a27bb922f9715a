package nomap

import (
	"strings"
	"testing"

	"nomap/internal/machine"
	"nomap/internal/oracle"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// Oracle acceptance tests: the fault-injection sweep must force an abort or
// deopt at every enumerated injection site — every speculation check, every
// transaction begin/commit/tile point, and chosen points of the transactional
// write footprint — under all six architecture configurations, with zero
// observable divergence from the pure interpreter, clean counter invariants,
// and ir.Verify holding after every optimization pass. Sweep itself records
// an "injection-missed" failure whenever a forced fault does not land or does
// not produce an abort/deopt, so rep.OK() covers the per-site obligation.

// oracleConfig keeps runs affordable: 16 calls still tier run() up to FTL
// under the harness fast policy because backedge-weighted counting dominates
// for loopy code.
func oracleConfig() oracle.Config {
	cfg := oracle.DefaultConfig()
	cfg.CapacityPoints = 2
	cfg.RandomTrials = 4
	return cfg
}

func checkReport(t *testing.T, rep *oracle.Report) {
	t.Helper()
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	for _, ar := range rep.Archs {
		if len(ar.Sites) == 0 {
			t.Errorf("%v: no injection sites enumerated", ar.Arch)
		}
		if ar.InjectedAborts+ar.InjectedDeopts == 0 {
			t.Errorf("%v: sweep injected no aborts and no deopts", ar.Arch)
		}
	}
}

func TestOracleWorkloads(t *testing.T) {
	// X01 and X05 write to heap inside their hot loops, so their sweeps must
	// also exercise capacity injection; X06 is pure scalar computation and
	// legitimately has an empty transactional write footprint.
	wantWrites := map[string]bool{"X01": true, "X05": true}
	for _, id := range []string{"X01", "X05", "X06"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByID(id)
			if !ok {
				t.Fatalf("unknown workload %s", id)
			}
			rep, err := oracle.Sweep(oracle.Program{
				Name:  w.ID,
				Setup: w.Source,
				Calls: 16,
			}, oracleConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep)
			// Transactional configurations must expose transaction-boundary
			// sites, not just checks.
			for _, ar := range rep.Archs {
				if !ar.Arch.UsesTransactions() {
					continue
				}
				kinds := map[machine.SiteKind]int{}
				for _, s := range ar.Sites {
					kinds[s.Key.Kind]++
				}
				if kinds[machine.SiteTxBegin] == 0 || kinds[machine.SiteTxCommit] == 0 {
					t.Errorf("%v: missing transaction boundary sites: %v", ar.Arch, kinds)
				}
				if wantWrites[id] && ar.WriteLines == 0 {
					t.Errorf("%v: empty transactional write footprint", ar.Arch)
				}
			}
			t.Logf("%s: %d sites, %d runs, %d injected aborts",
				rep.Program, rep.TotalSites(), rep.TotalRuns(), rep.TotalInjectedAborts())
		})
	}
}

// TestOracleInlinedSites sweeps the call-heavy workloads whose hot loops the
// inliner flattens: the recording run must enumerate sites carrying an
// inline path (code that used to be a callee's, now embedded in run's
// artifacts) — at depth 2 for the call chain — and the sweep then forces an
// abort or deopt at every one of them under all six configurations. A fault
// at an inlined site exercises the multi-depth frame reconstruction (SMP
// sites) and the transaction rollback across flattened frames (abort-
// converted sites), and the observable behaviour must match the pure
// interpreter throughout.
func TestOracleInlinedSites(t *testing.T) {
	wantChain := map[string]bool{"C03": true}
	for _, id := range []string{"C01", "C03"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByID(id)
			if !ok {
				t.Fatalf("unknown workload %s", id)
			}
			cfg := oracleConfig()
			cfg.CapacityPoints = 1
			cfg.RandomTrials = 2
			rep, err := oracle.Sweep(oracle.Program{
				Name:  w.ID,
				Setup: w.Source,
				Calls: 16,
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep)
			for _, ar := range rep.Archs {
				inlined, depth2 := 0, 0
				for _, s := range ar.Sites {
					if s.Key.Inline == "" {
						continue
					}
					inlined++
					if strings.Contains(s.Key.Inline, "/") {
						depth2++
					}
				}
				if inlined == 0 {
					t.Errorf("%v: no inlined injection sites enumerated", ar.Arch)
				}
				if wantChain[id] && depth2 == 0 {
					t.Errorf("%v: call chain exposed no depth-2 inlined sites", ar.Arch)
				}
			}
			t.Logf("%s: %d sites, %d runs, %d injected aborts",
				rep.Program, rep.TotalSites(), rep.TotalRuns(), rep.TotalInjectedAborts())
		})
	}
}

// TestOracleOSREntry sweeps a program whose first call is a single long
// loop: it OSR-enters FTL mid-run, so the recording enumerates the OSR
// artifact's sites (Key.OSR = loop-header pc) alongside the invocation
// artifact's — including the transaction that begins at the OSR entry. The
// sweep then forces an abort or deopt at every one of them (a missed
// injection is a recorded failure), and all six configurations must agree
// with the interpreter throughout.
func TestOracleOSREntry(t *testing.T) {
	t.Parallel()
	rep, err := oracle.Sweep(oracle.Program{
		Name: "osr-entry",
		Setup: `
var OC = new Array(64);
for (var i = 0; i < 64; i++) OC[i] = i;
function run() {
  var s = 0;
  for (var i = 0; i < 3000; i++) {
    OC[i & 63] = (OC[i & 63] + 1) | 0;
    s = s + OC[i & 63];
  }
  return s;
}`,
		Calls: 4,
	}, oracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	for _, ar := range rep.Archs {
		osrSites, osrBegins := 0, 0
		for _, s := range ar.Sites {
			if s.Key.OSR >= 0 {
				osrSites++
				if s.Key.Kind == machine.SiteTxBegin {
					osrBegins++
				}
			}
		}
		if osrSites == 0 {
			t.Errorf("%v: no OSR-artifact injection sites enumerated", ar.Arch)
		}
		if ar.Arch.UsesTransactions() && osrBegins == 0 {
			t.Errorf("%v: no transaction-begin site at the OSR entry", ar.Arch)
		}
	}
	t.Logf("osr-entry: %d sites, %d runs, %d injected aborts",
		rep.TotalSites(), rep.TotalRuns(), rep.TotalInjectedAborts())
}

// TestOracleBoxing sweeps the boxed-heavy numeric workloads — programs that
// live almost entirely in the NaN-boxed register file, hitting the fused
// superinstruction fast paths in the bytecode tiers and boxed operand slots
// in FTL code — under all six architecture configurations with fault
// injection at every enumerated site. Any divergence from the pure
// interpreter (which also runs boxed) fails: deopt and abort must always
// rematerialize correct boxed frames.
func TestOracleBoxing(t *testing.T) {
	for _, id := range []string{"N01", "N04", "N05"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByID(id)
			if !ok {
				t.Fatalf("unknown workload %s", id)
			}
			rep, err := oracle.Sweep(oracle.Program{
				Name:  w.ID,
				Setup: w.Source,
				Calls: 16,
			}, oracleConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep)
			t.Logf("%s: %d sites, %d runs, %d injected aborts",
				rep.Program, rep.TotalSites(), rep.TotalRuns(), rep.TotalInjectedAborts())
		})
	}
}

func TestOracleGeneratedPrograms(t *testing.T) {
	t.Parallel()
	const programs = 50
	n := programs
	if testing.Short() {
		n = 8
	}
	cfg := oracleConfig()
	cfg.CapacityPoints = 1
	cfg.RandomTrials = 2
	sites, runs := 0, 0
	for seed := int64(1); seed <= int64(n); seed++ {
		g := oracle.Generate(seed)
		rep, err := oracle.Sweep(g.Program(40, 3, 16), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			for _, f := range rep.Failures {
				t.Errorf("seed %d: %s", seed, f)
			}
			t.Fatalf("seed %d diverged; program:\n%s\npoison: %s", seed, g.Render(), g.Poison)
		}
		sites += rep.TotalSites()
		runs += rep.TotalRuns()
	}
	t.Logf("%d generated programs: %d sites, %d runs, all six configs agree", n, sites, runs)
}

// TestOraclePlantedBug plants the paper's nightmare bug — a removed check
// that should have fired (here: check verdicts forced to pass) — and demands
// the oracle both catches the divergence and shrinks a failing generated
// program to a minimal reproducer.
func TestOraclePlantedBug(t *testing.T) {
	t.Parallel()
	bug := oracle.NewPlantedBug()
	fails := func(g *oracle.GenSpec) bool {
		d, _ := oracle.DivergesUnderInjector(g.Program(40, 3, 16), vm.ArchNoMap, bug)
		return d
	}
	// Hunt failing seeds and reduce each; different seeds bottom out at
	// different sizes (a reproducer is 1-minimal once no single chunk can go,
	// and some failures need the whole array intact), so keep hunting until
	// one shrinks below the 20-line bar. The seed budget must cover several
	// divergent programs: which seeds trip the bug shifts whenever compiled
	// code shape changes (superinstruction fusion moved the first reducible
	// seed past 200).
	var found, red *oracle.GenSpec
	var seed, caught int64
	for s := int64(1); s <= 600 && red == nil; s++ {
		g := oracle.Generate(s)
		if !fails(g) {
			continue
		}
		caught++
		if r := oracle.Reduce(g, fails); r.LineCount() < 20 {
			found, red, seed = g, r, s
		}
	}
	if caught == 0 {
		t.Fatal("planted check-removal bug not caught by any of 600 generated programs")
	}
	if red == nil {
		t.Fatalf("bug caught by %d programs but none reduced below 20 lines", caught)
	}
	// The same program must be clean without the planted bug, so the
	// divergence is attributable to the bug alone.
	if d, detail := oracle.DivergesUnderInjector(found.Program(40, 3, 16), vm.ArchNoMap, nil); d {
		t.Fatalf("seed %d diverges even without the planted bug: %s", seed, detail)
	}
	if !fails(red) {
		t.Fatal("reducer returned a non-failing spec")
	}
	_, detail := oracle.DivergesUnderInjector(red.Program(40, 3, 16), vm.ArchNoMap, bug)
	t.Logf("seed %d shrunk %d→%d body chunks, %d→%d array inits (%d lines): %s",
		seed, len(found.Body), len(red.Body), len(found.ArrInit), len(red.ArrInit),
		red.LineCount(), detail)
}

// TestOracleCounterTamperDetected guards the guard: CheckCounters must flag
// a tampered accounting state, so a silent pass cannot hide a broken check.
func TestOracleCounterTamperDetected(t *testing.T) {
	c := &stats.Counters{}
	if err := oracle.CheckCounters(c); err != nil {
		t.Fatalf("zero counters flagged: %v", err)
	}
	c.TxBegins = 3
	c.TxCommits = 2
	if err := oracle.CheckCounters(c); err == nil {
		t.Error("transaction leak not detected")
	}
	// An abort with no recorded cause must be flagged: the per-cause ledger
	// has to partition the total exactly.
	c.TxAborts = 1
	if err := oracle.CheckCounters(c); err == nil {
		t.Error("causeless abort not detected")
	}
	c.TxCheckAborts = 1
	if err := oracle.CheckCounters(c); err != nil {
		t.Fatalf("balanced counters flagged: %v", err)
	}
	// Squashed cycles exceeding in-transaction cycles means wasted work was
	// invented out of thin air.
	c.CyclesSquashed = 5
	if err := oracle.CheckCounters(c); err == nil {
		t.Error("squashed > TM cycles not detected")
	}
	c.CyclesTM = 10
	if err := oracle.CheckCounters(c); err == nil {
		t.Error("unattributed squashed cycles not detected")
	}
	c.CyclesSquashedBy[0] = 5
	if err := oracle.CheckCounters(c); err != nil {
		t.Fatalf("balanced squash ledger flagged: %v", err)
	}
	c.Deopts = -1
	if err := oracle.CheckCounters(c); err == nil {
		t.Error("negative counter not detected")
	}
}
