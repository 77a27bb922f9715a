// Package pool is the multi-isolate serving layer: a fixed set of worker
// isolates consuming a bounded request queue, sharing the compiled-code
// cache and warm-start snapshot store so that repeat traffic skips both
// re-profiling and re-compilation. Backpressure is explicit — a full queue
// rejects with ErrQueueFull rather than buffering unboundedly — and each
// request may carry a deadline or a context, enforced at tier boundaries
// through the VM's interrupt hook so cancellation never tears an isolate
// mid-bytecode.
//
// Every response is produced by exactly one isolate, and isolates are fully
// Reset between tenants, so a request observes the same program behaviour
// it would on a dedicated cold engine; only the invisible warmup work is
// shared. That is the pool's differential guarantee, and the root
// serving_test exercises it across all architecture configurations.
//
// Every failure a worker can hit flows through one recovery state machine
// (governor.Resilience — the per-function post-abort discipline lifted to
// the fleet): a panicking isolate is contained, quarantined, and replaced
// (ErrIsolateCrash fails only the in-flight request); transient failures
// retry on a fresh isolate under a deadline-aware budget with deterministic
// seeded backoff; sustained fault or abort storms step the fleet's tier
// ceiling down FTL→DFG→Baseline→interp-only and, at the bottom, shed load
// until a probe proves recovery. The whole ladder is exercised by the
// deterministic chaos harness (internal/chaos) threaded through the pool,
// the snapshot store, and the code cache.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nomap/internal/chaos"
	"nomap/internal/codecache"
	"nomap/internal/governor"
	"nomap/internal/isolate"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// compileQueueDepth bounds the one background compile worker's queue:
// distinct jobs are bounded by (program, spec), so 16 holds a whole mix's
// worth of keys without re-offer churn. A full queue sheds the job rather
// than blocking a request.
const compileQueueDepth = 16

// Config sizes and parameterizes a pool.
type Config struct {
	// Workers is the number of isolates serving concurrently (default 1).
	Workers int
	// QueueDepth bounds the request queue (default 4× workers). A Submit
	// beyond this depth fails with ErrQueueFull.
	QueueDepth int
	// VM is the engine configuration template. Requests may override Arch
	// and MaxTier; everything else (policy, seed, call depth) is shared so
	// snapshots and cache entries transfer.
	VM vm.Config
	// Coalesce enables cold-start request coalescing: concurrent requests
	// for the same warm-start key elect one leader to serve cold and save
	// the snapshot while the others wait and then start warm, so a fleet
	// cold-start replays the profiling warmup once per key, not once per
	// worker.
	Coalesce bool
	// AsyncCompile moves DFG/FTL tier-up compilation off the request path:
	// a cache miss enqueues a background compile job and the request keeps
	// running at its current-best tier. The bounded compile queue applies
	// admission control — when the sliding-window p99 exceeds SLO, FTL jobs
	// down-tier to DFG; past 2×SLO (or a full queue) jobs are shed and the
	// degradation ladder is charged.
	AsyncCompile bool
	// CompileWarmCalls is how many run() calls a background compile job
	// rehearses to tier the key up (default 64 — past the default FTL
	// threshold when combined with loop back-edges).
	CompileWarmCalls int
	// SLO is the tail-latency objective steering compile-queue admission
	// (0 disables admission control; jobs then only clamp to the ladder's
	// tier cap).
	SLO time.Duration
	// SnapshotMinCalls is the minimum request size whose warm state is
	// worth capturing (default 8): tiny requests never reach the
	// speculative tiers, and their snapshots would freeze cold profiles.
	SnapshotMinCalls int
	// Resilience tunes the recovery state machine; zero fields take
	// DefaultResiliencePolicy values, and a zero Seed inherits VM.RandomSeed
	// so a pool's failure decisions replay with its execution.
	Resilience governor.ResiliencePolicy
	// Chaos, when non-nil, arms the deterministic fault-injection plan:
	// each serve attempt consults it for panic, slow-isolate, and
	// snapshot-corrupt points, and the shared code cache consults it for
	// compile-fail points. Production pools leave it nil (nil plans never
	// fault and cost only a nil check).
	Chaos *chaos.Plan
	// Tracer, when non-nil, observes every resilience transition. Events
	// are emitted synchronously from worker goroutines (the compile worker
	// emits a rehearsal crash's EventReplace); with one worker and no
	// AsyncCompile the stream is deterministic (the golden chaos trace
	// relies on this).
	Tracer machine.Tracer
}

// Event is the engine's one trace event type; the pool emits its
// resilience kinds (machine.EventCrash through machine.EventSnapshotReject).
type Event = machine.Event

// Request is one unit of serving work: run an interned program and call its
// run() entry point Calls times.
type Request struct {
	// Source is the program text (interned by the pool; repeat sources
	// share bytecode, cache entries, and snapshots).
	Source string
	// Calls is the number of run() invocations (default 1).
	Calls int
	// Arg is passed to run() on each call.
	Arg int
	// Arch, when non-nil, overrides the pool template's architecture.
	Arch *vm.Arch
	// MaxTier, when non-nil, overrides the pool template's tier cap.
	MaxTier *profile.Tier
	// Ctx, when non-nil, cancels the request: its deadline merges with
	// Timeout and its cancellation is honored at the same tier boundaries.
	Ctx context.Context
	// Timeout, when positive, bounds the request's execution; expiry
	// cancels at the next tier boundary with ErrDeadline. Sugar for a
	// context deadline.
	Timeout time.Duration
	// NonIdempotent marks a request that must never be retried (its program
	// mutates state outside the isolate — e.g. shared-heap traffic); a
	// transient failure surfaces immediately instead of re-running it.
	NonIdempotent bool
	// Observe, when non-nil, runs on the worker after the calls complete
	// (successfully or not) while the isolate still holds the program's
	// heap — tests use it to snapshot globals before the isolate is
	// recycled. It must not retain the *vm.VM.
	Observe func(*vm.VM)
}

// Response is the outcome of one request.
type Response struct {
	// Results holds run()'s stringified return value per call.
	Results []string
	// Output holds the program's accumulated print() lines.
	Output []string
	// Err is nil on success; otherwise it matches exactly one taxonomy
	// class under errors.Is (see errors.go).
	Err error
	// Counters is the isolate's measurement state at completion (zero after
	// a contained crash: a torn isolate's counters are untrustworthy).
	Counters stats.Counters
	// Warm reports that a snapshot restore skipped the profiling warmup.
	Warm bool
	// ServedTier is the tier cap the request actually ran under.
	ServedTier profile.Tier
	// Degraded reports the degradation ladder clamped the request below the
	// tier it asked for.
	Degraded bool
	// Attempts counts serve attempts (1 = no retries).
	Attempts int
	// Latency is queue wait plus execution time.
	Latency time.Duration
}

type job struct {
	req  Request
	resp chan Response
	enq  time.Time
}

type spec struct {
	arch    vm.Arch
	maxTier profile.Tier
}

// Pool is the serving layer. Create with New, submit with Submit, stop with
// Close.
type Pool struct {
	cfg      Config
	programs *codecache.Programs
	cache    *codecache.Cache
	snaps    *isolate.Store
	res      *governor.Resilience
	queue    chan *job
	wg       sync.WaitGroup

	// mu guards lifecycle and the isolate free lists only. Every counter is
	// atomic and the merged totals have their own mutex, so Stats() — and
	// any scraper calling it — never contends with the request path.
	mu     sync.Mutex
	closed bool
	idle   map[spec][]*isolate.Isolate
	// retiredSites fail-fasts programs whose crash fingerprint the
	// quarantine ledger permanently retired.
	retiredSites map[uint64]string

	mergedMu sync.Mutex
	merged   stats.Counters

	// latWin is the sliding request-latency window feeding the Stats p99
	// and the compile queue's admission control.
	latMu  sync.Mutex
	latWin *stats.LatencyWindow

	// flights is the cold-start coalescing table: one flight per warm-start
	// key currently being served cold by a leader.
	flightsMu sync.Mutex
	flights   map[isolate.StoreKey]*coldFlight

	// Background compile queue (AsyncCompile).
	compileQ chan compileJob
	cwg      sync.WaitGroup
	pendMu   sync.Mutex
	pending  map[pendKey]bool

	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	failedBy  [numClasses]atomic.Int64

	// events counts every emitted event by kind, traced or not: the
	// resilience fields of Stats read it, so they cannot disagree with
	// the trace.
	events [machine.NumEventKinds]atomic.Int64

	coalesceLeads atomic.Int64
	coalesceWaits atomic.Int64
	compileJobs   atomic.Int64
	compileDone   atomic.Int64
	compileSheds  atomic.Int64
	compileDowns  atomic.Int64
}

// coldFlight tracks one in-progress cold start: the leader closes done when
// its snapshot save (or failure) is final.
type coldFlight struct {
	done chan struct{}
}

// compileJob is one background tier-up rehearsal: load entry on a spare
// isolate of spec s and run the entry point enough times to fill the shared
// cache (and snapshot store) for everyone.
type compileJob struct {
	entry *codecache.ProgramEntry
	s     spec
	arg   int
	tier  profile.Tier
}

// pendKey dedups compile jobs: one rehearsal per (program, spec) fills every
// tier on the way up, so tier is deliberately excluded.
type pendKey struct {
	prog uint64
	s    spec
}

// numClasses sizes the atomic per-class failure counters; classIndex maps a
// taxonomy class to its slot.
const numClasses = 8

var classIndex = func() map[string]int {
	cs := Classes()
	if len(cs) != numClasses {
		panic("pool: numClasses out of sync with Classes()")
	}
	m := make(map[string]int, numClasses)
	for i, c := range cs {
		m[c] = i
	}
	return m
}()

// Stats is a point-in-time view of pool activity.
type Stats struct {
	Accepted  int64 // requests admitted to the queue
	Rejected  int64 // requests refused with ErrQueueFull or ErrClosed
	Completed int64 // responses produced without error
	Failed    int64 // responses produced with an error (deadline included)
	// FailedBy breaks Failed down by taxonomy class (see Classes).
	FailedBy map[string]int64
	// Resilience activity: each field counts the events of one kind, so
	// it equals what a Tracer sees.
	Crashes         int64 // panics contained inside isolates
	Replacements    int64 // crashed isolates replaced with fresh ones
	Retries         int64 // fresh-isolate retries granted
	DegradeSteps    int64 // ladder rungs stepped down
	Repromotions    int64 // probations survived
	Sheds           int64 // load-shedding episodes begun
	SnapshotRejects int64 // corrupt warm-start snapshots refused
	// Cold-start coalescing activity.
	CoalesceLeads int64 // cold starts served as flight leader
	CoalesceWaits int64 // requests that waited on a leader's flight
	// Background compile queue activity.
	CompileJobs      int64 // jobs enqueued
	CompileDone      int64 // jobs completed
	CompileSheds     int64 // jobs shed (queue full or p99 > 2×SLO)
	CompileDownTiers int64 // FTL jobs down-tiered to DFG (p99 > SLO)
	// P99Latency is the sliding-window request p99 (the admission signal).
	P99Latency time.Duration
	// Health is the recovery state machine's current view.
	Health governor.ResilienceSnap
	// Counters merges the per-isolate counters of error-free responses.
	Counters stats.Counters
	// Cache is the shared code cache's activity.
	Cache codecache.Stats
	// Snapshots is the warm-start store's activity.
	Snapshots isolate.StoreStats
}

// New creates and starts a pool.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.SnapshotMinCalls <= 0 {
		cfg.SnapshotMinCalls = 8
	}
	if cfg.VM.MaxTier == 0 && cfg.VM.Policy == (profile.Policy{}) {
		cfg.VM = vm.DefaultConfig()
	}
	pol := cfg.Resilience
	if pol.Seed == 0 {
		pol.Seed = int64(cfg.VM.RandomSeed)
	}
	if cfg.CompileWarmCalls <= 0 {
		cfg.CompileWarmCalls = 64
	}
	p := &Pool{
		cfg:          cfg,
		programs:     codecache.NewPrograms(),
		cache:        codecache.NewCache(codecache.DefaultCapacity),
		snaps:        isolate.NewStore(),
		res:          governor.NewResilience(pol, cfg.VM.MaxTier),
		queue:        make(chan *job, cfg.QueueDepth),
		idle:         make(map[spec][]*isolate.Isolate),
		retiredSites: make(map[uint64]string),
		latWin:       stats.NewLatencyWindow(0),
		flights:      make(map[isolate.StoreKey]*coldFlight),
	}
	if cfg.Chaos != nil {
		plan := cfg.Chaos
		p.cache.SetFaultProbe(func() error {
			if plan.Arm(chaos.KindCompileFail) {
				return &chaos.CompileFault{Occurrence: plan.Armed(chaos.KindCompileFail)}
			}
			return nil
		})
	}
	if cfg.AsyncCompile {
		p.compileQ = make(chan compileJob, compileQueueDepth)
		p.pending = make(map[pendKey]bool)
		p.cwg.Add(1)
		go p.compileWorker()
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues a request and returns a channel delivering its single
// Response. A full queue or a closed pool fails fast instead of blocking.
func (p *Pool) Submit(req Request) (<-chan Response, error) {
	j := &job{req: req, resp: make(chan Response, 1), enq: time.Now()}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.rejected.Add(1)
		return nil, ErrClosed
	}
	select {
	case p.queue <- j:
		p.accepted.Add(1)
		return j.resp, nil
	default:
		p.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Do submits and waits: a synchronous convenience for drivers and tests.
func (p *Pool) Do(req Request) Response {
	ch, err := p.Submit(req)
	if err != nil {
		return Response{Err: err}
	}
	return <-ch
}

// Close drains the queue gracefully: already-accepted requests complete,
// new Submits fail with ErrClosed, and Close returns when every worker has
// exited.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		p.cwg.Wait()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
	// Serving workers are the only producers of compile jobs; once they have
	// exited the queue can be closed and drained.
	if p.compileQ != nil {
		close(p.compileQ)
	}
	p.cwg.Wait()
}

// Stats returns a snapshot of pool activity. It never takes the pool mutex:
// scalar counters are atomics and the merged totals sit under their own
// small lock, so scraping stats cannot stall admission or the workers.
func (p *Pool) Stats() Stats {
	s := Stats{
		Accepted:         p.accepted.Load(),
		Rejected:         p.rejected.Load(),
		Completed:        p.completed.Load(),
		Failed:           p.failed.Load(),
		FailedBy:         make(map[string]int64, numClasses),
		Crashes:          p.events[machine.EventCrash].Load(),
		Replacements:     p.events[machine.EventReplace].Load(),
		Retries:          p.events[machine.EventRetry].Load(),
		DegradeSteps:     p.events[machine.EventStepDown].Load(),
		Repromotions:     p.events[machine.EventLadderRepromote].Load(),
		Sheds:            p.events[machine.EventShed].Load(),
		SnapshotRejects:  p.events[machine.EventSnapshotReject].Load(),
		CoalesceLeads:    p.coalesceLeads.Load(),
		CoalesceWaits:    p.coalesceWaits.Load(),
		CompileJobs:      p.compileJobs.Load(),
		CompileDone:      p.compileDone.Load(),
		CompileSheds:     p.compileSheds.Load(),
		CompileDownTiers: p.compileDowns.Load(),
	}
	for class, i := range classIndex {
		if n := p.failedBy[i].Load(); n > 0 {
			s.FailedBy[class] = n
		}
	}
	p.mergedMu.Lock()
	s.Counters = p.merged
	p.mergedMu.Unlock()
	s.P99Latency = p.latencyP99()
	s.Health = p.res.Export()
	s.Cache = p.cache.Stats()
	s.Snapshots = p.snaps.Stats()
	return s
}

// latencyP99 reads the sliding-window p99 estimate.
func (p *Pool) latencyP99() time.Duration {
	p.latMu.Lock()
	defer p.latMu.Unlock()
	return time.Duration(p.latWin.Quantile(0.99)) * time.Microsecond
}

// Cache exposes the shared code cache for reporting.
func (p *Pool) Cache() *codecache.Cache { return p.cache }

// Programs exposes the program registry (for reporting and tests).
func (p *Pool) Programs() *codecache.Programs { return p.programs }

// Resilience exposes the recovery state machine (for reporting, tests, and
// fleet-restart export/restore).
func (p *Pool) Resilience() *governor.Resilience { return p.res }

// Checkout borrows an isolate configured like the pool's workers for the
// given (arch, tier) spec, bypassing the queue. The oracle integration uses
// it to run fault-injection sweeps against a pool-drawn isolate. Return it
// with Return.
func (p *Pool) Checkout(arch vm.Arch, maxTier profile.Tier) *isolate.Isolate {
	return p.take(spec{arch: arch, maxTier: maxTier})
}

// Return recycles a borrowed isolate after a full Reset.
func (p *Pool) Return(iso *isolate.Isolate) {
	p.put(iso)
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		resp := p.serve(j.req)
		resp.Latency = time.Since(j.enq)
		p.latMu.Lock()
		p.latWin.Record(resp.Latency.Microseconds())
		p.latMu.Unlock()
		if resp.Err == nil {
			p.completed.Add(1)
			// Only error-free responses merge: a cancelled run may have
			// been cut mid-transaction, so its counters do not satisfy the
			// commit/abort balance invariants.
			p.mergedMu.Lock()
			p.merged.Add(&resp.Counters)
			p.mergedMu.Unlock()
		} else {
			p.failed.Add(1)
			p.failedBy[classIndex[Classify(resp.Err)]].Add(1)
		}
		j.resp <- resp
	}
}

// emit counts one resilience event and sends it to the configured tracer.
func (p *Pool) emit(e Event) {
	p.events[e.Kind].Add(1)
	p.cfg.Tracer.Emit(e)
}

// ladder translates a LadderChange into events. A change carries at most
// one rung move (Promoted never co-occurs with the other three), plus a
// shed transition.
func (p *Pool) ladder(ch governor.LadderChange) {
	switch {
	case ch.SteppedDown:
		p.emit(Event{Kind: machine.EventStepDown, Tier: ch.Cap})
	case ch.ProbeStarted:
		p.emit(Event{Kind: machine.EventProbe, Tier: ch.Cap})
	case ch.ProbeFailed:
		p.emit(Event{Kind: machine.EventProbeFail, Tier: ch.Cap})
	case ch.Promoted:
		p.emit(Event{Kind: machine.EventLadderRepromote, Tier: ch.Cap})
	}
	if ch.ShedStarted {
		p.emit(Event{Kind: machine.EventShed})
	}
	if ch.ShedCleared {
		p.emit(Event{Kind: machine.EventShedClear})
	}
}

func (p *Pool) specFor(req *Request) spec {
	s := spec{arch: p.cfg.VM.Arch, maxTier: p.cfg.VM.MaxTier}
	if req.Arch != nil {
		s.arch = *req.Arch
	}
	if req.MaxTier != nil {
		s.maxTier = *req.MaxTier
	}
	return s
}

func (p *Pool) take(s spec) *isolate.Isolate {
	p.mu.Lock()
	if stack := p.idle[s]; len(stack) > 0 {
		iso := stack[len(stack)-1]
		p.idle[s] = stack[:len(stack)-1]
		p.mu.Unlock()
		return iso
	}
	p.mu.Unlock()
	return p.newIsolate(s)
}

// newIsolate constructs a fresh isolate for s, connected to the pool's shared
// code cache.
func (p *Pool) newIsolate(s spec) *isolate.Isolate {
	cfg := p.cfg.VM
	cfg.Arch = s.arch
	cfg.MaxTier = s.maxTier
	iso := isolate.New(cfg)
	iso.UseCache(p.cache)
	return iso
}

// park pushes a clean isolate onto s's free list. The list is bounded:
// beyond 2× workers per spec the isolate is simply dropped (it holds no
// shared state).
func (p *Pool) park(s spec, iso *isolate.Isolate) {
	p.mu.Lock()
	if len(p.idle[s]) < 2*p.cfg.Workers {
		p.idle[s] = append(p.idle[s], iso)
	}
	p.mu.Unlock()
}

func (p *Pool) put(iso *isolate.Isolate) {
	iso.Reset()
	cfg := iso.Config()
	p.park(spec{arch: cfg.Arch, maxTier: cfg.MaxTier}, iso)
}

// replace discards a crashed isolate (its heap may be torn mid-bytecode, so
// it never rejoins the free list) and eagerly installs a fresh replacement,
// which warm-starts from the snapshot store on its first serve. The caller
// emits EventReplace, which counts the replacement; a serving crash emits it
// after the quarantine events.
func (p *Pool) replace(s spec) {
	p.park(s, p.newIsolate(s))
}

// crashSite renders a recovered panic value as a stable (program, site)
// fingerprint component. Injected chaos crashes get a fixed site so the
// ledger aggregates them; organic panics fingerprint by their rendering.
func crashSite(rec any) string {
	if _, ok := rec.(chaos.Crash); ok {
		return "chaos"
	}
	s := fmt.Sprint(rec)
	if len(s) > 64 {
		s = s[:64]
	}
	return s
}

// retiredSite reports the retired crash fingerprint for a program, if any.
func (p *Pool) retiredSite(prog uint64) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	site, ok := p.retiredSites[prog]
	return site, ok
}

// serve runs one request to completion: admission, deadline setup, and the
// bounded retry loop around individual serve attempts. Every failure path
// reports to the recovery state machine exactly once.
func (p *Pool) serve(req Request) Response {
	if req.Calls <= 0 {
		req.Calls = 1
	}
	// A request cancelled while queued never touches an isolate.
	if req.Ctx != nil {
		if err := req.Ctx.Err(); err != nil {
			return Response{Err: err}
		}
	}
	// While shedding, only the periodic probe is admitted.
	if !p.res.Admit() {
		return Response{Err: ErrDegraded}
	}
	entry, err := p.programs.Load(req.Source)
	if err != nil {
		return Response{Err: fmt.Errorf("pool: program: %w", err)}
	}
	if site, ok := p.retiredSite(entry.Hash); ok {
		return Response{Err: &CrashError{
			Site: site, Detail: "fingerprint retired by quarantine ledger",
			Crashes: p.res.CrashCount(governor.CrashKey{Program: entry.Hash, Site: site}),
			Retired: true,
		}}
	}

	// The request's deadline is computed exactly once — the merge of the
	// Timeout sugar and the context deadline — and every boundary check
	// reuses it with a single time.Now.
	var deadline time.Time
	if req.Timeout > 0 {
		deadline = time.Now().Add(req.Timeout)
	}
	if req.Ctx != nil {
		if d, ok := req.Ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}

	attempt := 1
	for {
		resp := p.serveOnce(&req, entry, deadline)
		resp.Attempts = attempt

		if resp.Err == nil {
			p.ladder(p.res.OnSuccess())
			if resp.Counters.TxAborts >= p.res.Policy().AbortStormThreshold {
				// The response succeeded but burned fleet capacity: an abort
				// storm charges the ladder without failing the request.
				p.ladder(p.res.OnFault())
			}
			return resp
		}

		retryable := false
		var ce *CrashError
		switch {
		case errors.As(resp.Err, &ce):
			key := governor.CrashKey{Program: entry.Hash, Site: ce.Site}
			v := p.res.OnCrash(key)
			ce.Crashes, ce.Retired = v.Crashes, v.Retired
			if v.Retired {
				p.mu.Lock()
				p.retiredSites[entry.Hash] = ce.Site
				p.mu.Unlock()
			}
			p.emit(Event{Kind: machine.EventCrash, Program: entry.Hash, Site: ce.Site, Attempt: attempt})
			p.emit(Event{Kind: machine.EventQuarantine, Program: entry.Hash, Site: ce.Site, N: v.Crashes})
			if v.NewlyRetired {
				p.emit(Event{Kind: machine.EventRetire, Program: entry.Hash, Site: ce.Site, N: v.Crashes})
			}
			p.emit(Event{Kind: machine.EventReplace, Program: entry.Hash, Tier: resp.ServedTier})
			p.ladder(v.Ladder)
			retryable = !v.Retired
		case errors.Is(resp.Err, ErrDeadline):
			// A watchdog kill is a fleet fault but never retried: the budget
			// is deadline-aware by construction.
			p.ladder(p.res.OnFault())
		default:
			// Runtime/user errors and context cancellation are the caller's:
			// deterministic re-execution would fail identically.
		}
		if !retryable || req.NonIdempotent {
			return resp
		}
		if req.Ctx != nil && req.Ctx.Err() != nil {
			return resp
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return resp
		}
		if !p.res.RetryAllowed(attempt) {
			p.ladder(p.res.OnFault())
			p.emit(Event{Kind: machine.EventRetryExhausted, Program: entry.Hash, Attempt: attempt})
			resp.Err = fmt.Errorf("%w (%d attempts): %w", ErrRetryBudget, attempt, resp.Err)
			return resp
		}
		window := p.res.Backoff(req.Source, attempt)
		p.emit(Event{Kind: machine.EventRetry, Program: entry.Hash, Attempt: attempt, N: window})
		attempt++
	}
}

// serveOnce runs one attempt on a freshly checked-out isolate, containing
// any panic: a crashed isolate is discarded and replaced, and the attempt
// reports a *CrashError instead of unwinding the worker.
func (p *Pool) serveOnce(req *Request, entry *codecache.ProgramEntry, deadline time.Time) (resp Response) {
	s := p.specFor(req)
	if cap := p.res.TierCap(); s.maxTier > cap {
		s.maxTier = cap
		resp.Degraded = true
	}
	resp.ServedTier = s.maxTier
	iso := p.take(s)
	defer func() {
		if rec := recover(); rec != nil {
			resp.Results = nil
			resp.Counters = stats.Counters{}
			resp.Err = &CrashError{Site: crashSite(rec), Detail: fmt.Sprint(rec)}
			p.replace(s)
			return
		}
		p.put(iso)
	}()

	// Chaos arming happens per attempt, so a retry after an injected fault
	// runs clean unless the plan schedules another occurrence.
	plan := p.cfg.Chaos
	crashArmed := plan.Arm(chaos.KindPanic)
	crashOcc := plan.Armed(chaos.KindPanic)
	wedged := plan.Arm(chaos.KindSlowIsolate)

	// One boundary check serves both the VM's interrupt hook and the call
	// loop: the hook performs the single time.Now, and the loop reads the
	// sticky verdict (the hook already ran inside the previous Call).
	var sticky error
	check := func() error {
		if sticky != nil {
			return sticky
		}
		if crashArmed {
			crashArmed = false
			panic(chaos.Crash{Occurrence: crashOcc})
		}
		if wedged {
			// The isolate is wedged: every boundary reports watchdog expiry.
			sticky = ErrDeadline
			return sticky
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// Any deadline — Timeout sugar or ctx-carried — reports
			// uniformly as ErrDeadline; ctx cancellation is checked after,
			// so "canceled" means an explicit cancel.
			sticky = ErrDeadline
			return sticky
		}
		if req.Ctx != nil {
			select {
			case <-req.Ctx.Done():
				sticky = req.Ctx.Err()
			default:
			}
		}
		return sticky
	}
	hooked := crashArmed || wedged || req.Ctx != nil || !deadline.IsZero()
	if hooked {
		iso.VM().SetInterrupt(check)
	}

	// Off-path compilation: a cache miss in any speculative tier offers a
	// background compile job and the request proceeds at its current-best
	// tier. The isolate's Reset clears the sink before it is recycled.
	if p.cfg.AsyncCompile {
		iso.Backend().SetCompileSink(func(tier profile.Tier) {
			p.offerCompile(compileJob{entry: entry, s: s, arg: req.Arg, tier: tier})
		})
	}

	if err := iso.Load(entry); err != nil {
		resp.Err = err
		resp.Counters = *iso.VM().Counters()
		return resp
	}

	skey := isolate.KeyFor(iso.Config(), entry)
	snap := p.snaps.Get(skey)
	if snap == nil && p.cfg.Coalesce && req.Calls >= p.cfg.SnapshotMinCalls {
		// Cold-start coalescing: the first request for a key serves cold
		// as the flight leader and saves the snapshot; concurrent
		// requests for the same key wait for it (bounded by their own
		// deadline) and then start warm, so a fleet cold-start replays
		// the profiling warmup once per key rather than once per worker.
		// Small requests (below SnapshotMinCalls) never join: their
		// leader would not save a snapshot, so waiting buys nothing.
		if fl, leader := p.joinCold(skey); leader {
			p.coalesceLeads.Add(1)
			// The flight closes on every exit from this attempt —
			// including a contained panic (LIFO defers run this before
			// the recover above) — so followers can never hang.
			defer p.leaveCold(skey, fl)
		} else {
			p.coalesceWaits.Add(1)
			p.waitCold(fl, deadline, req.Ctx)
			snap = p.snaps.Get(skey)
		}
	}
	if snap != nil {
		if plan.Arm(chaos.KindSnapshotCorrupt) {
			snap = snap.CorruptCopy()
		}
		if err := iso.Restore(snap); err == nil {
			resp.Warm = true
		} else if errors.Is(err, isolate.ErrSnapshotCorrupt) {
			// A damaged warm start degrades to a cold one: the request
			// still serves byte-identical results.
			p.emit(Event{Kind: machine.EventSnapshotReject, Program: entry.Hash})
		}
	}

	resp.Results = make([]string, 0, req.Calls)
	for i := 0; i < req.Calls; i++ {
		if hooked && sticky != nil {
			resp.Err = sticky
			break
		}
		v, err := iso.VM().CallGlobal("run", value.Int(int32(req.Arg)))
		if err != nil {
			resp.Err = err
			break
		}
		resp.Results = append(resp.Results, v.ToStringValue())
	}

	if req.Observe != nil {
		req.Observe(iso.VM())
	}
	if resp.Err == nil && !resp.Warm && req.Calls >= p.cfg.SnapshotMinCalls {
		p.snaps.SaveOnce(skey, iso.Snapshot())
	}
	resp.Output = append([]string(nil), iso.VM().Output...)
	resp.Counters = *iso.VM().Counters()
	return resp
}
