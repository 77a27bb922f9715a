package governor

import (
	"math"
	"sync"

	"nomap/internal/profile"
)

// Resilience is the serving layer's recovery state machine: the governor's
// per-function post-abort discipline lifted one layer up, to the pool. It
// centralizes the three policies the pool's failure paths flow through,
// exactly as funcState centralizes post-abort policy for one function:
//
//   - Quarantine ledger. Every contained isolate crash charges a
//     (program, site) fingerprint; after RetireAfterCrashes charges the
//     fingerprint is permanently retired — further requests matching it fail
//     fast instead of burning fresh isolates on a deterministic crasher
//     (the serving analogue of a pinned function).
//
//   - Retry backoff. Transient request failures retry on a fresh isolate
//     after a deterministic backoffWindow — the draw Contention.OnConflict
//     uses, because the same interleaving retried immediately tends to fail
//     identically.
//
//   - Degradation ladder. Sustained fault or abort storms step the whole
//     fleet's tier ceiling down FTL → DFG → Baseline → interp-only; at the
//     bottom, continued faults trip load shedding (every request but a
//     periodic probe is refused). Clean traffic earns probationary
//     re-promotion one rung at a time with window-doubling hysteresis —
//     the §V-C capacity-retreat shape applied to the fleet.
//
// Every decision is a pure function of the event sequence and the policy
// seed — never wall-clock time — so chaos sweeps replay exactly.

// ResiliencePolicy holds the deterministic tuning constants.
type ResiliencePolicy struct {
	// RetireAfterCrashes is the number of contained crashes on one
	// (program, site) fingerprint after which the fingerprint is retired.
	RetireAfterCrashes int64
	// RetryBudget is the number of fresh-isolate retries (beyond the first
	// attempt) a transiently failing request may consume. Zero takes the
	// default; a negative value disables retries entirely.
	RetryBudget int
	// BackoffBase is the first retry window in cycles; the envelope doubles
	// per attempt, capped at BackoffCap.
	BackoffBase int64
	BackoffCap  int64
	// TripThreshold is the fault count within one accounting window that
	// steps the ladder down a rung.
	TripThreshold int64
	// TripWindow is the completion count after which a sub-threshold fault
	// ledger clears — scattered benign faults never accumulate to a trip.
	TripWindow int64
	// RepromoteWindow is the clean-completion count a degraded fleet needs
	// before probing one rung up.
	RepromoteWindow int64
	// ProbationBackoff multiplies the window after every failed probe.
	ProbationBackoff int64
	// ProbeEvery admits every N-th request while shedding, so a recovered
	// backend is discovered without reopening the floodgates.
	ProbeEvery int64
	// AbortStormThreshold is the per-response transactional abort count
	// that charges the ladder as a fault event even though the response
	// succeeded (an abort storm is capacity the fleet cannot afford).
	AbortStormThreshold int64
	// Seed drives the randomized retry windows.
	Seed int64
}

// DefaultResiliencePolicy returns the tuning used by the serving layer.
func DefaultResiliencePolicy(seed int64) ResiliencePolicy {
	return ResiliencePolicy{
		RetireAfterCrashes:  3,
		RetryBudget:         2,
		BackoffBase:         64,
		BackoffCap:          4096,
		TripThreshold:       4,
		TripWindow:          32,
		RepromoteWindow:     16,
		ProbationBackoff:    2,
		ProbeEvery:          8,
		AbortStormThreshold: 64,
		Seed:                seed,
	}
}

// withDefaults fills zero fields so a zero-value policy is serviceable.
func (p ResiliencePolicy) withDefaults() ResiliencePolicy {
	d := DefaultResiliencePolicy(p.Seed)
	if p.RetireAfterCrashes <= 0 {
		p.RetireAfterCrashes = d.RetireAfterCrashes
	}
	if p.RetryBudget == 0 {
		p.RetryBudget = d.RetryBudget
	} else if p.RetryBudget < 0 {
		p.RetryBudget = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BackoffCap < p.BackoffBase {
		p.BackoffCap = p.BackoffBase
	}
	if p.TripThreshold <= 0 {
		p.TripThreshold = d.TripThreshold
	}
	if p.TripWindow <= 0 {
		p.TripWindow = d.TripWindow
	}
	if p.RepromoteWindow <= 0 {
		p.RepromoteWindow = d.RepromoteWindow
	}
	if p.ProbationBackoff <= 1 {
		p.ProbationBackoff = d.ProbationBackoff
	}
	if p.ProbeEvery <= 0 {
		p.ProbeEvery = d.ProbeEvery
	}
	if p.AbortStormThreshold <= 0 {
		p.AbortStormThreshold = d.AbortStormThreshold
	}
	return p
}

// CrashKey fingerprints one crash class: the program (by interned hash) and
// the crash site (a stable rendering of the panic origin).
type CrashKey struct {
	Program uint64
	Site    string
}

func (a CrashKey) less(b CrashKey) bool {
	if a.Program != b.Program {
		return a.Program < b.Program
	}
	return a.Site < b.Site
}

// CrashVerdict is the quarantine ledger's reaction to one contained crash.
type CrashVerdict struct {
	// Crashes is the fingerprint's lifetime charge count.
	Crashes int64
	// Retired reports the fingerprint is at or past the retirement budget.
	Retired bool
	// NewlyRetired reports this crash crossed the budget.
	NewlyRetired bool
	// Ladder is the degradation ladder's simultaneous reaction (a crash is
	// also a fault event).
	Ladder LadderChange
}

// LadderChange describes what one event did to the degradation ladder.
type LadderChange struct {
	// SteppedDown reports the fleet ceiling dropped one rung.
	SteppedDown bool
	// ProbeStarted reports a probationary promotion began.
	ProbeStarted bool
	// ProbeFailed reports a fault ended a probation (hysteresis doubled).
	ProbeFailed bool
	// Promoted reports a probation survived its full window.
	Promoted bool
	// ShedStarted / ShedCleared report load-shedding transitions.
	ShedStarted bool
	ShedCleared bool
	// Cap is the ceiling after the event.
	Cap profile.Tier
}

// Changed reports whether the event moved the ladder at all.
func (c LadderChange) Changed() bool {
	return c.SteppedDown || c.ProbeStarted || c.ProbeFailed || c.Promoted ||
		c.ShedStarted || c.ShedCleared
}

// Resilience owns the pool-level recovery state. Safe for concurrent use:
// pool workers report events from their own goroutines.
type Resilience struct {
	mu  sync.Mutex
	pol ResiliencePolicy
	// ceiling is the configured fleet tier cap the ladder re-promotes to.
	ceiling profile.Tier

	cap    profile.Tier
	proven profile.Tier
	// probation drives re-promotion; the fleet ladder never pins.
	probation Probation
	shed      bool
	// faults / completions are the current trip-accounting window.
	faults      int64
	completions int64
	admits      int64 // shed-mode admission counter

	// crashes is the quarantine ledger; a tripped fingerprint is retired.
	crashes Trips[CrashKey]
}

// NewResilience creates the recovery state machine for a fleet whose
// configured tier cap is ceiling.
func NewResilience(pol ResiliencePolicy, ceiling profile.Tier) *Resilience {
	pol = pol.withDefaults()
	return &Resilience{
		pol:       pol,
		ceiling:   ceiling,
		cap:       ceiling,
		proven:    ceiling,
		probation: Probation{Window: pol.RepromoteWindow},
	}
}

// Policy returns the tuning constants (defaults filled).
func (r *Resilience) Policy() ResiliencePolicy { return r.pol }

// TierCap returns the ladder's current fleet ceiling.
func (r *Resilience) TierCap() profile.Tier {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cap
}

// Degraded reports the fleet is serving below its configured ceiling (or
// shedding).
func (r *Resilience) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cap < r.ceiling || r.shed
}

// Shedding reports the ladder bottomed out and tripped again: the pool
// refuses work except for periodic probes.
func (r *Resilience) Shedding() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shed
}

// Admit is consulted per request while shedding: every ProbeEvery-th
// request is admitted as a probe; the rest are refused. When not shedding
// it always admits.
func (r *Resilience) Admit() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.shed {
		return true
	}
	r.admits++
	return r.admits%r.pol.ProbeEvery == 0
}

// CrashCount returns a fingerprint's lifetime charge count.
func (r *Resilience) CrashCount(k CrashKey) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashes.count(k)
}

// Retired reports whether a crash fingerprint is permanently retired.
func (r *Resilience) Retired(k CrashKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashes.tripped(k)
}

// OnCrash charges one contained isolate crash to its fingerprint and to the
// degradation ladder.
func (r *Resilience) OnCrash(k CrashKey) CrashVerdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := CrashVerdict{NewlyRetired: r.crashes.charge(k, r.pol.RetireAfterCrashes)}
	v.Crashes = r.crashes.count(k)
	v.Retired = v.Crashes >= r.pol.RetireAfterCrashes
	v.Ladder = r.fault()
	return v
}

// OnFault charges one non-crash fault event (retry exhaustion, watchdog
// kill, abort storm) to the degradation ladder.
func (r *Resilience) OnFault() LadderChange {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fault()
}

// fault is the ladder's fault transition (caller holds mu).
func (r *Resilience) fault() LadderChange {
	ch := LadderChange{}
	r.probation.Progress = 0
	if r.probation.Probing {
		// The probe failed: fall back to the proven rung and back off.
		r.cap = r.proven
		r.probation.fail(r.pol.ProbationBackoff, math.MaxInt)
		ch.ProbeFailed = true
		ch.Cap = r.cap
		return ch
	}
	r.faults++
	if r.faults >= r.pol.TripThreshold {
		r.faults = 0
		r.completions = 0
		if r.cap > profile.TierInterp {
			r.cap--
			r.proven = r.cap
			ch.SteppedDown = true
		} else if !r.shed {
			r.shed = true
			r.admits = 0
			ch.ShedStarted = true
		}
	}
	ch.Cap = r.cap
	return ch
}

// OnSuccess records one clean completion: it clears shedding (the probe
// that produced it proved the backend serviceable), rolls the trip window,
// and advances probationary re-promotion.
func (r *Resilience) OnSuccess() LadderChange {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shed {
		r.shed = false
		r.faults = 0
		r.completions = 0
		r.probation.Progress = 0
		return LadderChange{ShedCleared: true, Cap: r.cap}
	}
	r.completions++
	if r.faults > 0 && r.completions >= r.pol.TripWindow {
		// Window rollover: sub-threshold faults never accumulate to a trip.
		r.faults = 0
		r.completions = 0
	}
	var ch LadderChange
	ch.ProbeStarted, ch.Promoted = r.probation.clean(1, r.cap >= r.ceiling)
	if ch.Promoted {
		r.proven = r.cap
	}
	if ch.ProbeStarted {
		r.cap++
	}
	ch.Cap = r.cap
	return ch
}

// RetryAllowed reports whether a transiently failed request may consume one
// more fresh-isolate attempt. attempt is 1-based (the first retry is
// attempt 1).
func (r *Resilience) RetryAllowed(attempt int) bool {
	return attempt <= r.pol.RetryBudget
}

// Backoff returns the deterministic randomized retry window (in cycles) for
// the attempt-th retry of the request identified by key.
func (r *Resilience) Backoff(key string, attempt int) int64 {
	attempt = max(attempt, 1)
	return backoffWindow(r.pol.Seed, key, uint64(attempt), attempt, r.pol.BackoffBase, r.pol.BackoffCap)
}

// ResilienceSnap is the recovery state machine's exported state,
// deterministically ordered; it is also the diagnostic report (pool
// Stats.Health). Like the abort-recovery governor's Snapshot it is portable
// plain data: a fleet restart can restore it so learned retirements and the
// converged ladder level survive process boundaries. Crashes rows carry the
// fingerprint's lifetime charges in N, On when retired.
type ResilienceSnap struct {
	Cap    profile.Tier
	Proven profile.Tier
	// Ceiling is the configured cap the ladder re-promotes to; Restore keeps
	// the receiver's own.
	Ceiling profile.Tier
	Probation
	Shed        bool
	Faults      int64
	Completions int64
	Admits      int64
	Crashes     []Ledger[CrashKey]
}

// Degraded reports the snapshot was taken below the configured ceiling or
// while shedding.
func (s ResilienceSnap) Degraded() bool { return s.Cap < s.Ceiling || s.Shed }

// Export captures the full recovery state.
func (r *Resilience) Export() ResilienceSnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResilienceSnap{
		Cap: r.cap, Proven: r.proven, Ceiling: r.ceiling,
		Probation: r.probation, Shed: r.shed,
		Faults: r.faults, Completions: r.completions, Admits: r.admits,
		Crashes: r.crashes.export(CrashKey.less),
	}
}

// Restore replaces the recovery state with the snapshot's, keeping the
// current policy and ceiling. Restoring Export()'s output into a fresh
// machine reproduces the donor's decisions exactly.
func (r *Resilience) Restore(s ResilienceSnap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cap, r.proven, r.probation, r.shed = s.Cap, s.Proven, s.Probation, s.Shed
	if r.probation.Window <= 0 {
		r.probation.Window = r.pol.RepromoteWindow
	}
	r.faults, r.completions, r.admits = s.Faults, s.Completions, s.Admits
	r.crashes.restore(s.Crashes)
}
