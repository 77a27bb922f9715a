package governor

import "testing"

func TestContentionBackoffDeterminism(t *testing.T) {
	a := NewContention(DefaultContentionPolicy(7))
	b := NewContention(DefaultContentionPolicy(7))
	for i := 0; i < 3; i++ {
		da, db := a.OnConflict("wl#s0"), b.OnConflict("wl#s0")
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %+v vs %+v", i, da, db)
		}
		if da.Fallback {
			t.Fatalf("attempt %d: fell back below MaxAttempts", i)
		}
		if da.BackoffCycles <= 0 {
			t.Fatalf("attempt %d: non-positive backoff window %d", i, da.BackoffCycles)
		}
	}
	c := NewContention(DefaultContentionPolicy(8))
	var differs bool
	d := NewContention(DefaultContentionPolicy(7))
	for i := 0; i < 3; i++ {
		if c.OnConflict("wl#s0").BackoffCycles != d.OnConflict("wl#s0").BackoffCycles {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical backoff sequences")
	}
}

func TestContentionBackoffEnvelope(t *testing.T) {
	pol := ContentionPolicy{MaxAttempts: 10, BackoffBase: 16, BackoffCap: 64, RepromoteWindow: 4, Seed: 3}
	g := NewContention(pol)
	for i := 1; i < pol.MaxAttempts; i++ {
		dec := g.OnConflict("site")
		envelope := pol.BackoffBase << (i - 1)
		if envelope > pol.BackoffCap {
			envelope = pol.BackoffCap
		}
		if dec.BackoffCycles < 1 || dec.BackoffCycles > envelope {
			t.Fatalf("attempt %d: window %d outside (0, %d]", i, dec.BackoffCycles, envelope)
		}
	}
}

func TestContentionDemotionAndRepromotion(t *testing.T) {
	pol := ContentionPolicy{MaxAttempts: 3, BackoffBase: 8, BackoffCap: 64, RepromoteWindow: 2, Seed: 1}
	g := NewContention(pol)
	const site = "wl#s1"

	if g.Demoted(site) {
		t.Fatal("fresh site already demoted")
	}
	g.OnConflict(site)
	g.OnConflict(site)
	dec := g.OnConflict(site) // third conflict hits MaxAttempts
	if !dec.Fallback {
		t.Fatalf("conflict storm did not demand fallback: %+v", dec)
	}
	if !g.Demoted(site) {
		t.Fatal("site not demoted after conflict storm")
	}

	if g.OnCommit(site, true) {
		t.Fatal("repromoted after one clean fallback run (window is 2)")
	}
	if !g.OnCommit(site, true) {
		t.Fatal("not repromoted after RepromoteWindow clean fallback runs")
	}
	if g.Demoted(site) {
		t.Fatal("site still demoted after re-promotion")
	}

	rep := g.Report()
	if len(rep) != 1 || rep[0].Site != site {
		t.Fatalf("report = %+v, want single entry for %s", rep, site)
	}
	if rep[0].Conflicts != 3 || rep[0].Fallbacks != 1 || rep[0].Repromotes != 1 || rep[0].FallCommits != 2 {
		t.Fatalf("ledger = %+v", rep[0])
	}
}

func TestContentionAttemptsResetOnCommit(t *testing.T) {
	pol := ContentionPolicy{MaxAttempts: 2, BackoffBase: 8, BackoffCap: 8, RepromoteWindow: 2, Seed: 1}
	g := NewContention(pol)
	// conflict, commit, conflict, commit, ... never reaches MaxAttempts.
	for i := 0; i < 5; i++ {
		if dec := g.OnConflict("s"); dec.Fallback {
			t.Fatalf("iteration %d: demoted despite interleaved commits", i)
		}
		g.OnCommit("s", false)
	}
}

func TestContentionCapacityBlame(t *testing.T) {
	g := NewContention(DefaultContentionPolicy(5))
	dec := g.OnCapacity("wl#s0")
	if !dec.Fallback || dec.BackoffCycles != 0 {
		t.Fatalf("capacity blame should fall back immediately: %+v", dec)
	}
	// Capacity does not demote: the next execution may fit.
	if g.Demoted("wl#s0") {
		t.Fatal("capacity abort demoted the site")
	}
	rep := g.Report()
	if rep[0].Capacities != 1 || rep[0].Conflicts != 0 {
		t.Fatalf("capacity not ledgered separately from conflicts: %+v", rep[0])
	}
}

// TestContentionBackoffSurvivesLongRetryBudget: a caller-supplied policy with
// a retry budget past the width of the shift used to push the envelope
// negative (cap ignored) at attempt 60 and divide by zero at attempt 61.
func TestContentionBackoffSurvivesLongRetryBudget(t *testing.T) {
	pol := ContentionPolicy{MaxAttempts: 80, BackoffBase: 16, BackoffCap: 512}
	g := NewContention(pol)
	for i := 1; i < pol.MaxAttempts; i++ {
		dec := g.OnConflict("site")
		if dec.Fallback {
			t.Fatalf("conflict %d: fell back below MaxAttempts", i)
		}
		if dec.BackoffCycles < 1 || dec.BackoffCycles > pol.BackoffCap {
			t.Fatalf("conflict %d: window %d outside [1, %d]", i, dec.BackoffCycles, pol.BackoffCap)
		}
	}
}
