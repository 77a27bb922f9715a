package chaos

import (
	"sync"
	"testing"
)

func TestArmFiresAtExactOccurrence(t *testing.T) {
	p := NewPlan(1, At(KindPanic, 3), At(KindSlowIsolate, 1))
	for i := 1; i <= 5; i++ {
		got := p.Arm(KindPanic)
		if want := i == 3; got != want {
			t.Errorf("panic arm %d: fired=%v, want %v", i, got, want)
		}
	}
	if !p.Arm(KindSlowIsolate) {
		t.Error("slow-isolate@1 did not fire on first arm")
	}
	if p.Arm(KindSlowIsolate) {
		t.Error("slow-isolate fired twice")
	}
	if p.Fired(KindPanic) != 1 || p.Fired(KindSlowIsolate) != 1 {
		t.Errorf("fired ledger wrong: %d/%d", p.Fired(KindPanic), p.Fired(KindSlowIsolate))
	}
	if p.Armed(KindPanic) != 5 {
		t.Errorf("armed ledger wrong: %d", p.Armed(KindPanic))
	}
	if !p.Exhausted() {
		t.Error("plan with all points fired reports not exhausted")
	}
}

func TestNilPlanNeverFaults(t *testing.T) {
	var p *Plan
	if p.Arm(KindPanic) {
		t.Error("nil plan fired")
	}
	if !p.Exhausted() {
		t.Error("nil plan not exhausted")
	}
	if p.Fired(KindCompileFail) != 0 || p.Armed(KindCompileFail) != 0 {
		t.Error("nil plan has ledger state")
	}
}

// TestConcurrentArmFiresExactlyOnce: each scheduled point fires exactly once
// no matter how many goroutines race on Arm — the property the pool soak
// relies on.
func TestConcurrentArmFiresExactlyOnce(t *testing.T) {
	p := NewPlan(7, At(KindCompileFail, 5), At(KindCompileFail, 40), At(KindCompileFail, 97))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p.Arm(KindCompileFail)
			}
		}()
	}
	wg.Wait()
	if p.Armed(KindCompileFail) != 200 {
		t.Fatalf("armed %d, want 200", p.Armed(KindCompileFail))
	}
	if p.Fired(KindCompileFail) != 3 {
		t.Fatalf("fired %d, want 3", p.Fired(KindCompileFail))
	}
}

func TestSpreadDeterministicAndBounded(t *testing.T) {
	a := Spread(11, KindPanic, 4, 50)
	b := Spread(11, KindPanic, 4, 50)
	if a.String() != b.String() {
		t.Fatalf("equal seeds diverge: %s vs %s", a, b)
	}
	if a.Scheduled(KindPanic) != 4 {
		t.Fatalf("scheduled %d points, want 4", a.Scheduled(KindPanic))
	}
	// The plan itself is pinned: a change to the seeded draw would silently
	// move every chaos soak's fault points.
	if got, want := a.String(), "panic@8,panic@29,panic@37,panic@42"; got != want {
		t.Errorf("Spread(11, KindPanic, 4, 50) = %s, want %s", got, want)
	}
	c := Spread(12, KindPanic, 4, 50)
	if a.String() == c.String() {
		t.Errorf("different seeds produced identical plans: %s", a)
	}
	fired := 0
	for i := 0; i < 50; i++ {
		if a.Arm(KindPanic) {
			fired++
		}
	}
	if fired != 4 {
		t.Errorf("spread plan fired %d times in span, want 4", fired)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan(3, "panic@3,compile-fail@1,slow-isolate@5,snapshot-corrupt@2")
	if err != nil {
		t.Fatal(err)
	}
	want := "panic@3,compile-fail@1,slow-isolate@5,snapshot-corrupt@2"
	if p.String() != want {
		t.Errorf("plan %q, want %q", p, want)
	}
	back, err := ParsePlan(3, p.String())
	if err != nil || back.String() != p.String() {
		t.Errorf("round trip failed: %v %q", err, back)
	}
	for _, bad := range []string{"panic", "nope@1", "panic@0", "panic@x"} {
		if _, err := ParsePlan(0, bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestAllKindsCoversEnum(t *testing.T) {
	if len(AllKinds()) != int(NumKinds) {
		t.Fatalf("AllKinds lists %d kinds, enum has %d", len(AllKinds()), NumKinds)
	}
	seen := map[string]bool{}
	for _, k := range AllKinds() {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
		if got, ok := ParseKind(s); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v,%v", s, got, ok)
		}
	}
}
