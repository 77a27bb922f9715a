package oracle

import (
	"errors"
	"fmt"
	"time"

	"nomap/internal/chaos"
	"nomap/internal/governor"
	"nomap/internal/pool"
	"nomap/internal/vm"
)

// This file is the chaos analogue of the site sweep: where Sweep enumerates
// every injectable abort site and asserts differential correctness, the
// chaos sweep enumerates every registered serving-layer fault point
// (panic, compile-fail, slow-isolate, snapshot-corrupt) under every
// architecture's pool configuration and asserts the resilience invariants —
// zero lost or duplicated responses, per-class error counts matching the
// fault schedule, successful responses byte-identical to an undisturbed
// pool, and convergence back to a healthy fleet once the faults stop.

// ChaosConfig controls a chaos sweep.
type ChaosConfig struct {
	// Archs lists the pool configurations to sweep (default: all six).
	Archs []vm.Arch
	// Seed labels the fault plans and the pools' resilience policies.
	Seed int64
	// Workers sizes the concurrent phase's pool (default 4).
	Workers int
	// AsyncCompile runs the sweep with tier-up compilation moved onto the
	// pools' background compile queue. The resilience invariants are
	// tier-independent, so every assertion holds unchanged; the sweep only
	// additionally drains the queue before checking plan exhaustion, since
	// compile-fail faults now fire on rehearsal isolates.
	AsyncCompile bool
}

// DefaultChaosConfig sweeps every fault point under all six configurations.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Archs: vm.AllArchs, Seed: 1, Workers: 4}
}

// ChaosArchReport summarizes one configuration's chaos run.
type ChaosArchReport struct {
	Arch      vm.Arch
	Requests  int   // requests driven across both phases
	Faults    int64 // chaos faults fired
	Crashes   int64 // panics contained
	Recovered bool  // fleet healthy after the convergence phase
}

// ChaosReport is the outcome of a chaos sweep.
type ChaosReport struct {
	Archs    []ChaosArchReport
	Failures []Failure
}

// OK reports a fully clean sweep.
func (r *ChaosReport) OK() bool { return len(r.Failures) == 0 }

// chaosProgram tiers up quickly and deterministically; every request uses
// the same (program, arg), so every successful response must be
// byte-identical to the reference.
const chaosProgram = `
var o = {acc: 0};
function run(n) {
  var s = 0;
  for (var i = 0; i < 120; i++) {
    s = (s + i * n) | 0;
    o.acc = (o.acc + 1) | 0;
  }
  return s + o.acc;
}
`

const chaosCalls = 12 // ≥ SnapshotMinCalls, so the snapshot path is exercised

// referenceResults serves the canonical request once on an undisturbed pool.
func referenceResults(arch vm.Arch, seed int64) ([]string, error) {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	p := pool.New(pool.Config{Workers: 1, VM: cfg,
		Resilience: governor.ResiliencePolicy{Seed: seed}})
	defer p.Close()
	resp := p.Do(pool.Request{Source: chaosProgram, Calls: chaosCalls, Arg: 3})
	if resp.Err != nil {
		return nil, resp.Err
	}
	return resp.Results, nil
}

// ChaosSweep runs the fault-point enumeration for each configuration in two
// phases: a serial phase (one worker) whose per-class failure counts are
// exactly predictable from the plan, and a load phase (several workers, a
// scattered plan) where the schedule-independent invariants must hold, then
// a clean convergence tail that must return the fleet to full health.
func ChaosSweep(cfg ChaosConfig) *ChaosReport {
	if len(cfg.Archs) == 0 {
		cfg.Archs = vm.AllArchs
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	rep := &ChaosReport{}
	for _, arch := range cfg.Archs {
		ar := ChaosArchReport{Arch: arch}
		want, err := referenceResults(arch, cfg.Seed)
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{
				Arch: arch, Run: "serial", Kind: "divergence",
				Detail: fmt.Sprintf("reference run failed: %v", err)})
			continue
		}
		rep.Failures = append(rep.Failures, chaosSerial(arch, cfg.Seed, cfg.AsyncCompile, want, &ar)...)
		rep.Failures = append(rep.Failures, chaosLoad(arch, cfg.Seed, cfg.Workers, cfg.AsyncCompile, want, &ar)...)
		rep.Archs = append(rep.Archs, ar)
	}
	return rep
}

// chaosSerial drives one worker through a plan covering every fault kind at
// hand-placed occurrences, so the per-class outcome of every request is
// exactly predictable.
// drainCompiles waits for the background compile queue to finish every job
// offered so far. Offers happen synchronously inside serve attempts, so once
// the driver's requests have all returned, jobs-vs-done converging means the
// rehearsals (and any compile-fail faults they eat) are complete.
func drainCompiles(p *pool.Pool) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := p.Stats()
		if st.CompileJobs == st.CompileDone {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func chaosSerial(arch vm.Arch, seed int64, async bool, want []string, ar *ChaosArchReport) []Failure {
	var fails []Failure
	fail := func(kind, detail string, args ...any) {
		fails = append(fails, Failure{Arch: arch, Run: "serial", Kind: kind,
			Detail: fmt.Sprintf(detail, args...)})
	}
	vcfg := vm.DefaultConfig()
	vcfg.Arch = arch
	// The schedule, in panic/slow occurrence numbers (one arming per serve
	// attempt): req1 fills the caches and saves the snapshot (compile-fail@1
	// degrades its first fill to the baseline fallback, invisibly); req2's
	// first attempt hits snapshot-corrupt@1 (served cold) AND panic@2
	// (contained, retried at occurrence 3, which is clean); req4 (occurrence
	// 5) wedges and dies with the watchdog; everything else is clean.
	plan := chaos.NewPlan(seed,
		chaos.At(chaos.KindCompileFail, 1),
		chaos.At(chaos.KindSnapshotCorrupt, 1),
		chaos.At(chaos.KindPanic, 2),
		chaos.At(chaos.KindSlowIsolate, 5),
	)
	p := pool.New(pool.Config{
		Workers: 1, VM: vcfg, Chaos: plan, AsyncCompile: async,
		Resilience: governor.ResiliencePolicy{Seed: seed},
	})
	defer p.Close()

	const requests = 8
	deadlines := 0
	for i := 0; i < requests; i++ {
		resp := p.Do(pool.Request{Source: chaosProgram, Calls: chaosCalls, Arg: 3})
		ar.Requests++
		if resp.Err != nil {
			if errors.Is(resp.Err, pool.ErrDeadline) {
				deadlines++
				continue
			}
			fail("error-class", "request %d: unexpected failure %v", i, resp.Err)
			continue
		}
		if len(resp.Results) != len(want) {
			fail("divergence", "request %d: %d results, want %d", i, len(resp.Results), len(want))
			continue
		}
		for j := range want {
			if resp.Results[j] != want[j] {
				fail("divergence", "request %d call %d: %q != %q", i, j, resp.Results[j], want[j])
				break
			}
		}
	}
	if async {
		drainCompiles(p)
	}
	st := p.Stats()
	ar.Faults += plan.Fired(chaos.KindPanic) + plan.Fired(chaos.KindCompileFail) +
		plan.Fired(chaos.KindSlowIsolate) + plan.Fired(chaos.KindSnapshotCorrupt)
	ar.Crashes += st.Crashes
	if !plan.Exhausted() {
		fail("fault-unfired", "plan not exhausted: %s (fired panic=%d compile=%d slow=%d snap=%d)",
			plan, plan.Fired(chaos.KindPanic), plan.Fired(chaos.KindCompileFail),
			plan.Fired(chaos.KindSlowIsolate), plan.Fired(chaos.KindSnapshotCorrupt))
	}
	// Exact per-class bookkeeping: one watchdog deadline, everything else
	// recovered invisibly (the crash retried, the corrupt snapshot served
	// cold, the compile fault fell back to baseline).
	if deadlines != 1 || st.Failed != 1 || st.FailedBy[pool.ClassDeadline] != 1 {
		fail("error-class", "deadlines=%d failed=%d breakdown=%v, want exactly one deadline",
			deadlines, st.Failed, st.FailedBy)
	}
	if st.Completed != requests-1 {
		fail("lost-response", "completed=%d of %d (one deadline expected)", st.Completed, requests)
	}
	if st.Crashes != 1 || st.Replacements != 1 || st.Retries != 1 || st.SnapshotRejects != 1 {
		fail("error-class", "crashes=%d replacements=%d retries=%d snapshotRejects=%d, want 1/1/1/1",
			st.Crashes, st.Replacements, st.Retries, st.SnapshotRejects)
	}
	if st.Health.Degraded() {
		fail("not-healthy", "fleet degraded after serial phase: %+v", st.Health)
	}
	return fails
}

// chaosLoad drives a multi-worker pool through a scattered plan with enough
// panics to trip the degradation ladder, asserting only the
// schedule-independent invariants, then a clean tail that must re-promote
// the fleet to full health.
func chaosLoad(arch vm.Arch, seed int64, workers int, async bool, want []string, ar *ChaosArchReport) []Failure {
	var fails []Failure
	fail := func(phase, kind, detail string, args ...any) {
		fails = append(fails, Failure{Arch: arch, Run: phase, Kind: kind,
			Detail: fmt.Sprintf(detail, args...)})
	}
	vcfg := vm.DefaultConfig()
	vcfg.Arch = arch
	plan := chaos.NewPlan(seed,
		chaos.At(chaos.KindPanic, 2), chaos.At(chaos.KindPanic, 5),
		chaos.At(chaos.KindPanic, 8), chaos.At(chaos.KindPanic, 11),
		chaos.At(chaos.KindPanic, 14),
		chaos.At(chaos.KindSlowIsolate, 4), chaos.At(chaos.KindSlowIsolate, 9),
		chaos.At(chaos.KindCompileFail, 1),
		chaos.At(chaos.KindSnapshotCorrupt, 2),
	)
	p := pool.New(pool.Config{
		Workers: workers, QueueDepth: 64, VM: vcfg, Chaos: plan, AsyncCompile: async,
		Resilience: governor.ResiliencePolicy{
			// The five same-fingerprint chaos crashes must not retire the
			// program: this phase tests the ladder, not the ledger.
			RetireAfterCrashes: 100,
			Seed:               seed,
		},
	})
	defer p.Close()

	const loadRequests = 24
	responses := 0
	chans := make([]<-chan pool.Response, 0, loadRequests)
	for i := 0; i < loadRequests; i++ {
		ch, err := p.Submit(pool.Request{Source: chaosProgram, Calls: chaosCalls, Arg: 3})
		if err != nil {
			fail("load", "lost-response", "submit %d rejected: %v", i, err)
			continue
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		resp, ok := <-ch
		if !ok {
			fail("load", "lost-response", "response channel %d closed without a response", i)
			continue
		}
		responses++
		ar.Requests++
		if resp.Err != nil {
			// Under load, which request eats which fault is
			// schedule-dependent, but the failure class must be one the
			// plan can produce.
			switch pool.Classify(resp.Err) {
			case pool.ClassDeadline, pool.ClassCrash, pool.ClassRetryBudget, pool.ClassDegraded:
			default:
				fail("load", "error-class", "request %d: class %q (%v)", i, pool.Classify(resp.Err), resp.Err)
			}
			continue
		}
		if len(resp.Results) != len(want) {
			fail("load", "divergence", "request %d: %d results, want %d", i, len(resp.Results), len(want))
			continue
		}
		for j := range want {
			if resp.Results[j] != want[j] {
				fail("load", "divergence", "request %d call %d: %q != %q", i, j, resp.Results[j], want[j])
				break
			}
		}
	}
	if responses != len(chans) {
		fail("load", "lost-response", "%d responses for %d accepted requests", responses, len(chans))
	}

	// Convergence tail: the plan is exhausted (or nearly — wedged armings
	// may lag), traffic is clean, and the ladder must walk back to the
	// ceiling.
	// Worst case the ladder stepped down two rungs (crash faults plus a
	// retry exhaustion): each rung back needs a RepromoteWindow of clean
	// completions plus a probation window, so leave comfortable margin.
	const tail = 64
	for i := 0; i < tail; i++ {
		resp := p.Do(pool.Request{Source: chaosProgram, Calls: chaosCalls, Arg: 3})
		ar.Requests++
		if resp.Err != nil && !errors.Is(resp.Err, pool.ErrDegraded) {
			fail("converge", "error-class", "tail request %d: %v", i, resp.Err)
		}
	}
	if async {
		drainCompiles(p)
	}
	st := p.Stats()
	ar.Faults += plan.Fired(chaos.KindPanic) + plan.Fired(chaos.KindCompileFail) +
		plan.Fired(chaos.KindSlowIsolate) + plan.Fired(chaos.KindSnapshotCorrupt)
	ar.Crashes += st.Crashes
	if !plan.Exhausted() {
		fail("load", "fault-unfired", "plan not exhausted: %s", plan)
	}
	if st.Health.Degraded() {
		fail("converge", "not-healthy", "fleet not recovered: %+v (degradeSteps=%d repromotions=%d)",
			st.Health, st.DegradeSteps, st.Repromotions)
	}
	ar.Recovered = !st.Health.Degraded()
	// The books must balance exactly: every accepted request produced one
	// response.
	if st.Accepted != st.Completed+st.Failed {
		fail("converge", "lost-response", "accepted=%d completed=%d failed=%d",
			st.Accepted, st.Completed, st.Failed)
	}
	return fails
}
