package nomap

import (
	"errors"
	"strings"
	"testing"

	"nomap/internal/chaos"
	"nomap/internal/governor"
	"nomap/internal/pool"
	"nomap/internal/vm"
)

// TestTraceGoldenChaos pins the serving layer's full recovery event stream —
// crash → quarantine → replace → degrade, retry, retirement, the probe/
// repromote climb back, and a snapshot-integrity reject — for a fixed chaos
// plan against a one-worker pool. Everything in the stream is deterministic
// (seeded backoff, occurrence-indexed faults, no wall-clock), so any drift
// is a recovery-policy change: a ladder rung moving, an event reordering, a
// retry decision flipping. Run with -update to accept an intended change.
func TestTraceGoldenChaos(t *testing.T) {
	progA := `
function run(n) { return n + 1; }
`
	progB := `
function run(n) { return n * 2; }
`
	progC := `
var acc = 0;
function run(n) { acc = acc + n; return acc; }
`

	plan := chaos.NewPlan(1,
		chaos.At(chaos.KindPanic, 1),           // req1 attempt 1: crash, retry succeeds
		chaos.At(chaos.KindPanic, 6),           // req5 (non-idempotent): crash, no retry
		chaos.At(chaos.KindPanic, 7),           // req6: second crash retires the fingerprint
		chaos.At(chaos.KindSnapshotCorrupt, 1), // progC's first warm start is corrupt
	)
	var lines []string
	p := pool.New(pool.Config{
		Workers: 1,
		VM:      servingConfig(vm.ArchNoMap),
		Resilience: governor.ResiliencePolicy{
			TripThreshold:      1, // every fault steps the ladder down a rung
			RetireAfterCrashes: 2,
			RepromoteWindow:    2,
			Seed:               1,
		},
		Chaos:  plan,
		Tracer: func(e pool.Event) { lines = append(lines, e.String()) },
	})
	defer p.Close()

	// req1: the injected crash is contained, the isolate replaced, the fleet
	// ceiling steps FTL→DFG, and the retry serves the request successfully.
	resp := p.Do(pool.Request{Source: progA, Calls: 2, Arg: 3})
	if resp.Err != nil || resp.Attempts != 2 {
		t.Fatalf("req1: err=%v attempts=%d, want success on attempt 2", resp.Err, resp.Attempts)
	}
	// req2-4: clean traffic earns a probe back to FTL and proves it.
	for i := 0; i < 3; i++ {
		if resp := p.Do(pool.Request{Source: progA, Calls: 2, Arg: 3}); resp.Err != nil {
			t.Fatalf("clean req %d: %v", i+2, resp.Err)
		}
	}
	// req5-6: a deterministic crasher marked non-idempotent is never retried;
	// its second crash retires the (program, site) fingerprint and the two
	// ladder charges sink the ceiling to Baseline.
	for i := 0; i < 2; i++ {
		resp := p.Do(pool.Request{Source: progB, Calls: 2, Arg: 5, NonIdempotent: true})
		if !errors.Is(resp.Err, pool.ErrIsolateCrash) || resp.Attempts != 1 {
			t.Fatalf("crasher %d: err=%v attempts=%d, want one contained crash", i+5, resp.Err, resp.Attempts)
		}
	}
	// req7: the retired fingerprint fails fast without burning an isolate —
	// and without emitting any event.
	resp = p.Do(pool.Request{Source: progB, Calls: 2, Arg: 5, NonIdempotent: true})
	var ce *pool.CrashError
	if !errors.As(resp.Err, &ce) || !ce.Retired {
		t.Fatalf("retired program: err=%v, want fail-fast retired CrashError", resp.Err)
	}
	// Clean tail: eight completions climb the ladder back rung by rung
	// (probe DFG, prove it, probe FTL, prove it).
	for i := 0; i < 8; i++ {
		if resp := p.Do(pool.Request{Source: progA, Calls: 2, Arg: 3}); resp.Err != nil {
			t.Fatalf("tail req %d: %v", i, resp.Err)
		}
	}
	// progC is large enough to snapshot; its second serve draws the corrupt
	// warm start, which the integrity seal rejects — served cold, identical.
	first := p.Do(pool.Request{Source: progC, Calls: 12, Arg: 1})
	second := p.Do(pool.Request{Source: progC, Calls: 12, Arg: 1})
	if first.Err != nil || second.Err != nil {
		t.Fatalf("progC: %v / %v", first.Err, second.Err)
	}
	if second.Warm {
		t.Fatal("progC second serve restored a corrupt snapshot")
	}
	if strings.Join(first.Results, ",") != strings.Join(second.Results, ",") {
		t.Fatalf("cold re-serve diverged: %v vs %v", first.Results, second.Results)
	}

	if !plan.Exhausted() {
		t.Fatalf("plan %v did not fire every scheduled fault", plan)
	}
	st := p.Stats()
	if st.Health.Degraded() || st.Health.Cap != st.Health.Ceiling {
		t.Fatalf("fleet did not recover: %+v", st.Health)
	}
	if st.Crashes != 3 || st.Replacements != 3 || st.Retries != 1 || st.SnapshotRejects != 1 {
		t.Fatalf("counters: crashes=%d replacements=%d retries=%d snapshotRejects=%d",
			st.Crashes, st.Replacements, st.Retries, st.SnapshotRejects)
	}

	checkGolden(t, "trace_chaos.golden", lines)
}
