package governor

import (
	"math"
	"reflect"
	"testing"
)

func intLess(a, b int) bool { return a < b }

func TestTripsChargeTripsAtBudgetOnce(t *testing.T) {
	for _, budget := range []int64{1, 3, 4} {
		var l Trips[int]
		if l.set() != nil {
			t.Fatal("zero ledger has a tripped set")
		}
		for n := int64(1); n <= budget+3; n++ {
			tripped := l.charge(7, budget)
			if tripped != (n == budget) {
				t.Fatalf("budget %d charge %d: tripped = %v", budget, n, tripped)
			}
			if l.tripped(7) != (n >= budget) || l.count(7) != n {
				t.Fatalf("budget %d charge %d: tripped(7) = %v count = %d", budget, n, l.tripped(7), l.count(7))
			}
		}
		if got := l.set(); len(got) != 1 || !got[7] {
			t.Fatalf("budget %d: tripped set = %v, want {7}", budget, got)
		}
		if l.tripped(8) || l.count(8) != 0 {
			t.Fatal("uncharged key has state")
		}
	}
}

func TestTripsDecay(t *testing.T) {
	cases := []struct {
		name   string
		sticky bool
		want   []Ledger[int] // after enough decays to drain every count
	}{
		// A sticky trip survives the drain and keeps its row; an undecayed
		// diagnostic count keeps a row alive on its own.
		{"sticky", true, []Ledger[int]{{Key: 1, On: true}, {Key: 3, Aux: 2}}},
		// A non-sticky drain un-trips and forgets the key.
		{"non-sticky", false, []Ledger[int]{{Key: 3, Aux: 2}}},
	}
	for _, c := range cases {
		var l Trips[int]
		for i := 0; i < 4; i++ {
			l.charge(1, 4) // trips
		}
		l.charge(2, 4) // below budget
		l.bump(3, 1, 2)
		l.decay(c.sticky)
		if !l.tripped(1) || l.count(1) != 2 || l.count(2) != 0 {
			t.Fatalf("%s: after one decay: tripped(1)=%v count(1)=%d count(2)=%d", c.name, l.tripped(1), l.count(1), l.count(2))
		}
		l.decay(c.sticky)
		l.decay(c.sticky)
		if got := l.export(intLess); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: drained ledger = %+v, want %+v", c.name, got, c.want)
		}
		if c.sticky == (l.set() == nil) {
			t.Errorf("%s: tripped set = %v", c.name, l.set())
		}
	}
}

func TestTripsExportRestore(t *testing.T) {
	var l Trips[int]
	if l.export(intLess) != nil {
		t.Fatal("empty ledger exports rows")
	}
	for _, k := range []int{9, 2, 5, 2, 7, 2} {
		l.charge(k, 3)
	}
	l.bump(5, 0, 4)
	want := []Ledger[int]{{Key: 2, N: 3, On: true}, {Key: 5, N: 1, Aux: 4}, {Key: 7, N: 1}, {Key: 9, N: 1}}
	got := l.export(intLess)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("export = %+v, want %+v", got, want)
	}
	var fresh Trips[int]
	fresh.charge(99, 1) // restore replaces, never merges
	fresh.restore(got)
	if again := fresh.export(intLess); !reflect.DeepEqual(again, want) {
		t.Fatalf("restore(export) = %+v, want %+v", again, want)
	}
	// The restored ledger decides like the donor and does not alias it.
	if fresh.charge(2, 3) || !fresh.charge(9, 2) || l.count(9) != 1 {
		t.Fatal("restored ledger diverged from or aliased the donor")
	}
	fresh.restore(nil)
	if fresh.set() != nil || fresh.export(intLess) != nil {
		t.Fatal("restore(nil) left state behind")
	}
}

func TestProbation(t *testing.T) {
	p := Probation{Window: 4}
	// At the top rung clean progress earns nothing.
	if start, confirmed := p.clean(100, true); start || confirmed || p.Progress != 0 {
		t.Fatalf("at top: start=%v confirmed=%v progress=%d", start, confirmed, p.Progress)
	}
	// Below it, a full window earns a probe — exactly when it fills.
	if start, _ := p.clean(3, false); start {
		t.Fatal("probe started before the window filled")
	}
	if start, confirmed := p.clean(1, false); !start || confirmed || !p.Probing || p.Progress != 0 {
		t.Fatalf("window filled: start=%v confirmed=%v %+v", start, confirmed, p)
	}
	// A running probe counts progress even at the top rung, and confirms.
	if start, confirmed := p.clean(4, true); start || !confirmed || p.Probing || !p.Promoted {
		t.Fatalf("probe window filled: start=%v confirmed=%v %+v", start, confirmed, p)
	}
	// Failure ends a probe, multiplies the window, and pins at max.
	p.clean(4, false)
	p.fail(2, 2)
	if p.Probing || p.Failed != 1 || p.Window != 8 || p.Pinned {
		t.Fatalf("after first failure: %+v", p)
	}
	p.fail(2, 2)
	if !p.Pinned || p.Window != 16 {
		t.Fatalf("after max failures: %+v", p)
	}
	if start, confirmed := p.clean(1000, false); start || confirmed {
		t.Fatal("pinned probation started a probe")
	}
	q := Probation{Window: 4, Probing: true, Progress: 3}
	q.pin()
	if !q.Pinned || q.Probing || q.Progress != 0 {
		t.Fatalf("pin: %+v", q)
	}
}

func TestProbationWindowSaturates(t *testing.T) {
	p := Probation{Window: 16}
	for i := 0; i < 200; i++ {
		p.fail(3, math.MaxInt)
		if p.Window <= 0 || p.Window > 3*maxWindow {
			t.Fatalf("failure %d: window %d overflowed", i+1, p.Window)
		}
	}
	if p.Window <= maxWindow || p.Pinned {
		t.Fatalf("after 200 failures: %+v, want a saturated window and no pin", p)
	}
}

func TestBackoffWindowEnvelope(t *testing.T) {
	cases := []struct {
		attempt   int
		base, cap int64
		envelope  int64
	}{
		{1, 16, 512, 16},
		{2, 16, 512, 32},
		{6, 16, 512, 512},
		{7, 16, 512, 512},
		{1 << 30, 16, 512, 512},
		{2, 64, 100, 100}, // cap not a power-of-two multiple of base
		{0, 16, 512, 16},
		{3, 600, 512, 512}, // base above cap
		{70, 1, math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		var hi int64
		for draw := uint64(0); draw < 2000; draw++ {
			w := backoffWindow(3, "site", draw, c.attempt, c.base, c.cap)
			if w < 1 || w > c.envelope {
				t.Fatalf("%+v draw %d: window %d outside [1, %d]", c, draw, w, c.envelope)
			}
			hi = max(hi, w)
		}
		if c.envelope <= 512 && hi <= c.envelope/2 {
			t.Errorf("%+v: 2000 draws never left the lower half (max %d): envelope too small", c, hi)
		}
	}
	if backoffWindow(1, "a", 1, 2, 16, 512) == backoffWindow(2, "a", 1, 2, 16, 512) &&
		backoffWindow(1, "a", 2, 2, 16, 512) == backoffWindow(2, "a", 2, 2, 16, 512) {
		t.Error("seed does not reach the draw")
	}
}
