package pool

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"nomap/internal/chaos"
	"nomap/internal/governor"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// TestCrashContainedAndRetried: an injected isolate panic is contained,
// the crashed isolate is quarantined and replaced, and the request retries
// to success on a fresh isolate — with results byte-identical to a pool
// that never crashed.
func TestCrashContainedAndRetried(t *testing.T) {
	clean := newTestPool(t, Config{Workers: 1})
	want := clean.Do(Request{Source: loopProgram, Calls: 4, Arg: 2})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	plan := chaos.NewPlan(1, chaos.At(chaos.KindPanic, 1))
	p := newTestPool(t, Config{Workers: 1, Chaos: plan})
	resp := p.Do(Request{Source: loopProgram, Calls: 4, Arg: 2})
	if resp.Err != nil {
		t.Fatalf("crash not retried to success: %v", resp.Err)
	}
	if resp.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one crash, one retry)", resp.Attempts)
	}
	for i := range want.Results {
		if resp.Results[i] != want.Results[i] {
			t.Fatalf("post-crash result %d diverges: %q != %q", i, resp.Results[i], want.Results[i])
		}
	}
	st := p.Stats()
	if st.Crashes != 1 || st.Replacements != 1 || st.Retries != 1 {
		t.Errorf("crashes=%d replacements=%d retries=%d, want 1/1/1",
			st.Crashes, st.Replacements, st.Retries)
	}
	if st.Completed != 1 || st.Failed != 0 {
		t.Errorf("accounting: %+v", st)
	}
	if !plan.Exhausted() {
		t.Error("scheduled panic never fired")
	}
}

// TestQuarantinedReplacementServesIdenticalToCold is the regression guard
// the ISSUE names: after a crash quarantines an isolate and a replacement
// takes over, the replacement's responses are indistinguishable from a
// cold pool's — including warm-start behaviour on later repeats.
func TestQuarantinedReplacementServesIdenticalToCold(t *testing.T) {
	cold := newTestPool(t, Config{Workers: 1})
	var want []Response
	for i := 0; i < 4; i++ {
		r := cold.Do(Request{Source: loopProgram, Calls: 12, Arg: 3})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want = append(want, r)
	}

	plan := chaos.NewPlan(1, chaos.At(chaos.KindPanic, 1))
	p := newTestPool(t, Config{Workers: 1, Chaos: plan})
	for i := 0; i < 4; i++ {
		r := p.Do(Request{Source: loopProgram, Calls: 12, Arg: 3})
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		for j := range want[i].Results {
			if r.Results[j] != want[i].Results[j] {
				t.Fatalf("request %d call %d: %q != cold %q", i, j, r.Results[j], want[i].Results[j])
			}
		}
	}
	if p.Stats().Replacements != 1 {
		t.Errorf("replacements = %d, want 1", p.Stats().Replacements)
	}
}

// TestQuarantineLedgerRetiresFingerprint: K crashes on the same
// (program, site) fingerprint permanently retire it; later requests fail
// fast with a Retired CrashError without burning fresh isolates.
func TestQuarantineLedgerRetiresFingerprint(t *testing.T) {
	plan := chaos.NewPlan(1, chaos.At(chaos.KindPanic, 1), chaos.At(chaos.KindPanic, 2))
	p := newTestPool(t, Config{
		Workers: 1,
		Chaos:   plan,
		Resilience: governor.ResiliencePolicy{
			RetireAfterCrashes: 2,
			TripThreshold:      100, // keep the ladder out of this test
			Seed:               1,
		},
	})
	// NonIdempotent suppresses retries so each crash surfaces directly.
	req := Request{Source: loopProgram, Calls: 2, NonIdempotent: true}
	for i := 1; i <= 2; i++ {
		resp := p.Do(req)
		if !errors.Is(resp.Err, ErrIsolateCrash) {
			t.Fatalf("crash %d: err=%v, want ErrIsolateCrash", i, resp.Err)
		}
		var ce *CrashError
		if !errors.As(resp.Err, &ce) || ce.Crashes != int64(i) {
			t.Fatalf("crash %d: verdict %+v", i, resp.Err)
		}
	}
	crashesBefore := p.Stats().Crashes

	resp := p.Do(req)
	var ce *CrashError
	if !errors.As(resp.Err, &ce) || !ce.Retired {
		t.Fatalf("retired fingerprint not fail-fast: %v", resp.Err)
	}
	if got := p.Stats().Crashes; got != crashesBefore {
		t.Errorf("fail-fast burned an isolate: crashes %d → %d", crashesBefore, got)
	}
	if Classify(resp.Err) != ClassCrash {
		t.Errorf("retired error classifies as %q", Classify(resp.Err))
	}
}

// TestRetryBudgetExhaustion: a request that crashes on every attempt
// consumes its whole budget and surfaces ErrRetryBudget wrapping the final
// crash.
func TestRetryBudgetExhaustion(t *testing.T) {
	plan := chaos.NewPlan(1,
		chaos.At(chaos.KindPanic, 1), chaos.At(chaos.KindPanic, 2), chaos.At(chaos.KindPanic, 3))
	p := newTestPool(t, Config{
		Workers: 1,
		Chaos:   plan,
		Resilience: governor.ResiliencePolicy{
			RetryBudget:        2,
			RetireAfterCrashes: 100,
			TripThreshold:      100,
			Seed:               1,
		},
	})
	resp := p.Do(Request{Source: loopProgram, Calls: 2})
	if !errors.Is(resp.Err, ErrRetryBudget) {
		t.Fatalf("err=%v, want ErrRetryBudget", resp.Err)
	}
	if !errors.Is(resp.Err, ErrIsolateCrash) {
		t.Errorf("budget error lost the crash cause: %v", resp.Err)
	}
	if resp.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + budget 2)", resp.Attempts)
	}
	if got := Classify(resp.Err); got != ClassRetryBudget {
		t.Errorf("classified %q, want %q", got, ClassRetryBudget)
	}
	if st := p.Stats(); st.Retries != 2 || st.Crashes != 3 {
		t.Errorf("retries=%d crashes=%d, want 2/3", st.Retries, st.Crashes)
	}
}

// TestDegradationLadderAndRepromotion: sustained crashes step the fleet's
// tier cap down; clean traffic probationally re-promotes it back to the
// ceiling.
func TestDegradationLadderAndRepromotion(t *testing.T) {
	plan := chaos.NewPlan(1, chaos.At(chaos.KindPanic, 1), chaos.At(chaos.KindPanic, 2))
	p := newTestPool(t, Config{
		Workers: 1,
		Chaos:   plan,
		Resilience: governor.ResiliencePolicy{
			TripThreshold:      2,
			RepromoteWindow:    2,
			RetireAfterCrashes: 100,
			Seed:               1,
		},
	})
	req := Request{Source: loopProgram, Calls: 2, NonIdempotent: true}
	for i := 0; i < 2; i++ {
		if resp := p.Do(req); !errors.Is(resp.Err, ErrIsolateCrash) {
			t.Fatalf("crash %d: %v", i, resp.Err)
		}
	}
	if cap := p.Resilience().TierCap(); cap != profile.TierDFG {
		t.Fatalf("cap %v after 2 faults, want DFG", cap)
	}
	// The next request runs under the clamp and says so.
	resp := p.Do(Request{Source: loopProgram, Calls: 2})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !resp.Degraded || resp.ServedTier != profile.TierDFG {
		t.Errorf("degraded=%v servedTier=%v, want true/DFG", resp.Degraded, resp.ServedTier)
	}
	// Clean traffic: RepromoteWindow completions start a probe, another
	// window confirms it.
	for i := 0; i < 4; i++ {
		if r := p.Do(Request{Source: loopProgram, Calls: 2}); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := p.Stats()
	if st.Health.Cap != st.Health.Ceiling || st.Health.Degraded() {
		t.Errorf("fleet not re-promoted: %+v", st.Health)
	}
	if st.DegradeSteps != 1 || st.Repromotions != 1 {
		t.Errorf("degradeSteps=%d repromotions=%d, want 1/1", st.DegradeSteps, st.Repromotions)
	}
	final := p.Do(Request{Source: loopProgram, Calls: 2})
	if final.Err != nil || final.Degraded {
		t.Errorf("post-recovery request still degraded: err=%v degraded=%v", final.Err, final.Degraded)
	}
}

// TestShedAndProbeRecovery: an interp-only fleet that keeps faulting trips
// load shedding; refused requests classify as degraded, the periodic probe
// is admitted, and its success reopens the pool.
func TestShedAndProbeRecovery(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierInterp
	plan := chaos.NewPlan(1, chaos.At(chaos.KindPanic, 1), chaos.At(chaos.KindPanic, 2))
	p := newTestPool(t, Config{
		Workers: 1,
		VM:      cfg,
		Chaos:   plan,
		Resilience: governor.ResiliencePolicy{
			TripThreshold:      2,
			ProbeEvery:         2,
			RetireAfterCrashes: 100,
			Seed:               1,
		},
	})
	req := Request{Source: loopProgram, Calls: 2, NonIdempotent: true}
	for i := 0; i < 2; i++ {
		if resp := p.Do(req); !errors.Is(resp.Err, ErrIsolateCrash) {
			t.Fatalf("crash %d: %v", i, resp.Err)
		}
	}
	if !p.Resilience().Shedding() {
		t.Fatal("bottomed fleet did not shed")
	}
	// First request while shedding is refused; the second is the probe.
	refused := p.Do(Request{Source: loopProgram, Calls: 2})
	if !errors.Is(refused.Err, ErrDegraded) {
		t.Fatalf("shed request: err=%v, want ErrDegraded", refused.Err)
	}
	if got := Classify(refused.Err); got != ClassDegraded {
		t.Errorf("classified %q, want %q", got, ClassDegraded)
	}
	probe := p.Do(Request{Source: loopProgram, Calls: 2})
	if probe.Err != nil {
		t.Fatalf("probe request failed: %v", probe.Err)
	}
	if p.Resilience().Shedding() {
		t.Error("successful probe did not clear shedding")
	}
	st := p.Stats()
	if st.Sheds != 1 || st.FailedBy[ClassDegraded] != 1 {
		t.Errorf("sheds=%d failedBy=%v", st.Sheds, st.FailedBy)
	}
}

// TestSlowIsolateWatchdog: a wedged isolate dies with ErrDeadline at the
// next tier boundary even when the request carries no deadline of its own,
// and the pool stays serviceable.
func TestSlowIsolateWatchdog(t *testing.T) {
	plan := chaos.NewPlan(1, chaos.At(chaos.KindSlowIsolate, 1))
	p := newTestPool(t, Config{Workers: 1, Chaos: plan})
	resp := p.Do(Request{Source: loopProgram, Calls: 5})
	if !errors.Is(resp.Err, ErrDeadline) {
		t.Fatalf("wedged isolate: err=%v, want ErrDeadline", resp.Err)
	}
	if resp.Attempts != 1 {
		t.Errorf("watchdog kill retried (%d attempts); deadline failures must not retry", resp.Attempts)
	}
	ok := p.Do(Request{Source: loopProgram, Calls: 3})
	if ok.Err != nil {
		t.Fatalf("pool unusable after watchdog kill: %v", ok.Err)
	}
	if st := p.Stats(); st.FailedBy[ClassDeadline] != 1 {
		t.Errorf("failure breakdown: %v", st.FailedBy)
	}
}

// TestSnapshotCorruptServedCold: a warm-start snapshot corrupted in flight
// is rejected by its integrity seal and the request is served cold with
// byte-identical results; the snapshot store itself stays healthy.
func TestSnapshotCorruptServedCold(t *testing.T) {
	plan := chaos.NewPlan(1, chaos.At(chaos.KindSnapshotCorrupt, 1))
	p := newTestPool(t, Config{Workers: 1, Chaos: plan})
	req := Request{Source: loopProgram, Calls: 12, Arg: 3}

	first := p.Do(req) // cold; saves the snapshot
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	hit := p.Do(req) // restore path; chaos corrupts the copy in flight
	if hit.Err != nil {
		t.Fatal(hit.Err)
	}
	if hit.Warm {
		t.Error("corrupt snapshot reported warm")
	}
	for i := range first.Results {
		if hit.Results[i] != first.Results[i] {
			t.Fatalf("cold-degraded result %d diverges: %q != %q", i, hit.Results[i], first.Results[i])
		}
	}
	if st := p.Stats(); st.SnapshotRejects != 1 {
		t.Errorf("snapshotRejects = %d, want 1", st.SnapshotRejects)
	}
	// The stored original is undamaged: the next repeat warms normally.
	again := p.Do(req)
	if again.Err != nil || !again.Warm {
		t.Errorf("store damaged by in-flight corruption: err=%v warm=%v", again.Err, again.Warm)
	}
	if !plan.Exhausted() {
		t.Error("scheduled corruption never fired")
	}
}

// TestCompileFailFallsBack: an injected transient compile failure degrades
// that fill to the baseline fallback without changing a single result.
func TestCompileFailFallsBack(t *testing.T) {
	clean := newTestPool(t, Config{Workers: 1})
	want := clean.Do(Request{Source: loopProgram, Calls: 12, Arg: 3})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	plan := chaos.NewPlan(1, chaos.At(chaos.KindCompileFail, 1))
	p := newTestPool(t, Config{Workers: 1, Chaos: plan})
	resp := p.Do(Request{Source: loopProgram, Calls: 12, Arg: 3})
	if resp.Err != nil {
		t.Fatalf("compile fault surfaced as request failure: %v", resp.Err)
	}
	for i := range want.Results {
		if resp.Results[i] != want.Results[i] {
			t.Fatalf("result %d diverges under compile fault: %q != %q", i, resp.Results[i], want.Results[i])
		}
	}
	if !plan.Exhausted() {
		t.Error("scheduled compile fault never fired")
	}
}

// TestContextCancelAndDeadline: Request.Ctx is honored at tier boundaries —
// cancellation classifies as canceled, a ctx-carried deadline as deadline.
func TestContextCancelAndDeadline(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := p.Do(Request{Source: loopProgram, Calls: 5, Ctx: ctx})
	if !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("canceled ctx: err=%v", resp.Err)
	}
	if got := Classify(resp.Err); got != ClassCanceled {
		t.Errorf("classified %q, want %q", got, ClassCanceled)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	resp = p.Do(Request{Source: loopProgram, Calls: 5, Ctx: dctx, Observe: func(*vm.VM) {}})
	// The merged deadline is already past, but the request was admitted
	// before cancellation propagated — either the queued-cancel path
	// (ctx error) or the boundary path (ErrDeadline) is correct; what is
	// not acceptable is a successful run.
	if resp.Err == nil {
		t.Fatal("expired ctx deadline served successfully")
	}
	if !errors.Is(resp.Err, ErrDeadline) && !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx deadline: err=%v", resp.Err)
	}

	ok := p.Do(Request{Source: loopProgram, Calls: 3})
	if ok.Err != nil {
		t.Fatalf("pool unusable after ctx failures: %v", ok.Err)
	}
}

// TestQueueFullUnderConcurrentDo: many goroutines hammering Do against a
// parked worker and a tiny queue must each get exactly one response —
// accepted ones served, overflow rejected with ErrQueueFull — with the
// books balancing.
func TestQueueFullUnderConcurrentDo(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, QueueDepth: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := p.Submit(Request{Source: loopProgram, Calls: 1,
		Observe: func(*vm.VM) { close(started); <-release }})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	const callers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var served, rejected int
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := p.Do(Request{Source: loopProgram, Calls: 1})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.Err == nil:
				served++
			case errors.Is(resp.Err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("unexpected error class: %v", resp.Err)
			}
		}()
	}
	// Let the submits race against the parked worker, then release it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-blocker
	wg.Wait()

	if served+rejected != callers {
		t.Fatalf("lost responses: served=%d rejected=%d of %d", served, rejected, callers)
	}
	if rejected == 0 {
		t.Error("no request observed backpressure (queue depth 2, 16 callers)")
	}
	st := p.Stats()
	if st.Accepted != int64(served)+1 || st.Rejected != int64(rejected) {
		t.Errorf("books don't balance: %+v vs served=%d rejected=%d", st, served, rejected)
	}
}

// TestShutdownRacesInFlight: Close racing a burst of in-flight and incoming
// requests neither drops an accepted response nor deadlocks; late submits
// fail with ErrClosed.
func TestShutdownRacesInFlight(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 8})
	var wg sync.WaitGroup
	results := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, err := p.Submit(Request{Source: loopProgram, Calls: 2})
			if err != nil {
				if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					results <- err
				}
				return
			}
			resp := <-ch // accepted requests must complete, even across Close
			results <- resp.Err
		}()
	}
	p.Close()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("accepted request failed across Close: %v", err)
		}
	}
	if _, err := p.Submit(Request{Source: loopProgram}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: %v", err)
	}
}

// TestDeadlineAtTierBoundary: a deadline that expires exactly at a tier
// boundary (already past when the first boundary check runs) cancels with
// ErrDeadline and produces no partial results.
func TestDeadlineAtTierBoundary(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1})
	resp := p.Do(Request{Source: loopProgram, Calls: 50, Timeout: time.Nanosecond})
	if !errors.Is(resp.Err, ErrDeadline) {
		t.Fatalf("err=%v, want ErrDeadline", resp.Err)
	}
	if len(resp.Results) != 0 {
		t.Errorf("deadline at first boundary returned %d partial results", len(resp.Results))
	}
	if st := p.Stats(); st.FailedBy[ClassDeadline] != 1 {
		t.Errorf("breakdown: %v", st.FailedBy)
	}
}

// TestStatsCountEvents: the resilience counters of Stats are counts of the
// pool's events. A run that crashes, replaces, retries, sinks the ladder to
// interp-only, sheds, climbs back and rejects a corrupt snapshot reports
// each counter equal to the number of events of its kind, and an untraced
// twin of the run reports identical Stats.
func TestStatsCountEvents(t *testing.T) {
	run := func(tracer machine.Tracer) Stats {
		plan := chaos.NewPlan(1,
			chaos.At(chaos.KindSnapshotCorrupt, 1), // the first warm start
			// The first two attempts serve big; the next three are one
			// request's attempt and both retries, each stepping the ladder
			// down a rung; the exhausted budget's fault at interp-only sheds.
			chaos.At(chaos.KindPanic, 3),
			chaos.At(chaos.KindPanic, 4),
			chaos.At(chaos.KindPanic, 5),
		)
		p := newTestPool(t, Config{
			Workers: 1,
			Chaos:   plan,
			Resilience: governor.ResiliencePolicy{
				TripThreshold:      1,
				RetireAfterCrashes: 100,
				RepromoteWindow:    2,
				ProbeEvery:         2,
				Seed:               1,
			},
			Tracer: tracer,
		})
		// big saves a snapshot, then draws the corrupt copy of it.
		big := Request{Source: loopProgram, Calls: 12, Arg: 3}
		for i := 0; i < 2; i++ {
			if r := p.Do(big); r.Err != nil {
				t.Fatalf("snapshot serve %d: %v", i, r.Err)
			}
		}
		req := Request{Source: loopProgram, Calls: 2, Arg: 1}
		if r := p.Do(req); !errors.Is(r.Err, ErrRetryBudget) || r.Attempts != 3 {
			t.Fatalf("crash storm: err=%v attempts=%d, want retry budget exhausted on attempt 3", r.Err, r.Attempts)
		}
		if !p.Resilience().Shedding() {
			t.Fatal("ladder at interp-only did not shed")
		}
		if r := p.Do(req); !errors.Is(r.Err, ErrDegraded) {
			t.Fatalf("shed request: err=%v, want ErrDegraded", r.Err)
		}
		// The probe clears shedding; twelve clean completions climb
		// interp → Baseline → DFG → FTL, a probe and a repromote per rung.
		for i := 0; i < 13; i++ {
			if r := p.Do(req); r.Err != nil {
				t.Fatalf("recovery request %d: %v", i, r.Err)
			}
		}
		if !plan.Exhausted() {
			t.Fatalf("plan %v did not fire every scheduled fault", plan)
		}
		st := p.Stats()
		if st.Health.Degraded() {
			t.Fatalf("fleet did not recover: %+v", st.Health)
		}
		st.P99Latency = 0 // wall-clock
		return st
	}

	var seen [machine.NumEventKinds]int64
	traced := run(func(e Event) { seen[e.Kind]++ })
	for _, c := range []struct {
		kind machine.EventKind
		got  int64
	}{
		{machine.EventCrash, traced.Crashes},
		{machine.EventReplace, traced.Replacements},
		{machine.EventRetry, traced.Retries},
		{machine.EventStepDown, traced.DegradeSteps},
		{machine.EventLadderRepromote, traced.Repromotions},
		{machine.EventShed, traced.Sheds},
		{machine.EventSnapshotReject, traced.SnapshotRejects},
	} {
		if c.got == 0 || c.got != seen[c.kind] {
			t.Errorf("%s: Stats counts %d, trace holds %d (want equal and non-zero)", c.kind, c.got, seen[c.kind])
		}
	}
	if untraced := run(nil); !reflect.DeepEqual(untraced, traced) {
		t.Errorf("untraced twin's Stats differ:\n  traced   %+v\n  untraced %+v", traced, untraced)
	}
}
