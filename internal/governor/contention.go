package governor

import "sort"

// Contention is the shared-heap analogue of the abort-recovery governor: it
// owns all post-abort policy for shared sections, and its central job is
// blame attribution. A conflict abort means another context raced us — the
// work retries after a randomized-by-seed backoff window, because the same
// interleaving re-run immediately would collide again. A capacity abort
// means the section's own footprint cannot fit the geometry — backing off
// cannot help, so the section retreats to the software fallback lock at
// once, mirroring how the §V-C ladder retreats tile size rather than
// retrying. Conflict storms past the retry budget also demote to the
// fallback; a demoted section earns its way back to transactions after a
// window of clean fallback executions (probationary re-promotion, the same
// discipline funcState applies to transaction levels).
//
// Every decision is a pure function of the event sequence and the policy
// seed — the backoff "randomness" is a deterministic hash of (seed, site,
// attempt history) — so the schedule-sweep oracle reproduces runs exactly.

// ContentionPolicy holds the deterministic tuning constants.
type ContentionPolicy struct {
	// MaxAttempts is the number of transactional attempts per section
	// execution before the worker falls back to the software lock; the
	// section's site is demoted at the same time.
	MaxAttempts int
	// BackoffBase is the first backoff window in cycles; the window doubles
	// per consecutive conflict, capped at BackoffCap.
	BackoffBase int64
	BackoffCap  int64
	// RepromoteWindow is the number of clean fallback executions after
	// which a demoted site probes the transactional path again.
	RepromoteWindow int64
	// Seed drives the randomized backoff windows. Two runs with equal seeds
	// and equal event sequences back off identically.
	Seed int64
}

// DefaultContentionPolicy returns the tuning used by the runtime.
func DefaultContentionPolicy(seed int64) ContentionPolicy {
	return ContentionPolicy{
		MaxAttempts:     4,
		BackoffBase:     16,
		BackoffCap:      512,
		RepromoteWindow: 8,
		Seed:            seed,
	}
}

// ContentionSiteReport is one site's demotion flag and lifetime ledgers
// (diagnostics and tests).
type ContentionSiteReport struct {
	Site        string
	Demoted     bool
	Conflicts   int64
	Capacities  int64
	Backoffs    int64
	Fallbacks   int64
	Repromotes  int64
	TxCommits   int64
	FallCommits int64
}

// contentionSite is one section's contention state: its report row plus the
// counters that drive decisions.
type contentionSite struct {
	ContentionSiteReport
	attempts  int   // conflict aborts of the current section execution
	cleanFall int64 // clean fallback executions since demotion
	draws     uint64
}

// Contention is the per-run contention governor. It is not safe for
// concurrent use; in the real-goroutine execution mode each call happens
// under the conflict domain's step lock, which also keeps the decision
// sequence serialized and therefore deterministic per schedule.
type Contention struct {
	pol   ContentionPolicy
	sites map[string]*contentionSite
}

// NewContention creates a contention governor. The policy is used as given:
// start from DefaultContentionPolicy and override fields.
func NewContention(pol ContentionPolicy) *Contention {
	return &Contention{pol: pol, sites: make(map[string]*contentionSite)}
}

// Policy returns the governor's tuning constants.
func (c *Contention) Policy() ContentionPolicy { return c.pol }

func (c *Contention) site(key string) *contentionSite {
	s, ok := c.sites[key]
	if !ok {
		s = &contentionSite{ContentionSiteReport: ContentionSiteReport{Site: key}}
		c.sites[key] = s
	}
	return s
}

// Demoted reports whether the site must execute on the fallback path.
func (c *Contention) Demoted(key string) bool {
	s, ok := c.sites[key]
	return ok && s.Demoted
}

// ContentionDecision is the verdict on one conflict or capacity abort.
type ContentionDecision struct {
	// Fallback directs the worker to acquire the software lock for this
	// section execution (and marks the site demoted on conflict storms).
	Fallback bool
	// BackoffCycles is the randomized retry window to serve before the next
	// transactional attempt (conflict aborts below the retry budget only).
	BackoffCycles int64
}

// OnConflict reacts to a conflict abort of the given section site.
// Contention blame: retry after a randomized window; past MaxAttempts the
// site is demoted to the fallback path.
func (c *Contention) OnConflict(key string) ContentionDecision {
	s := c.site(key)
	s.Conflicts++
	s.attempts++
	if s.attempts >= c.pol.MaxAttempts {
		s.attempts = 0
		s.Demoted = true
		s.cleanFall = 0
		s.Fallbacks++
		return ContentionDecision{Fallback: true}
	}
	// The draw hashes the per-site draw count, not the attempt, so a site's
	// windows differ across section executions.
	s.draws++
	s.Backoffs++
	return ContentionDecision{BackoffCycles: backoffWindow(c.pol.Seed, key, s.draws, s.attempts, c.pol.BackoffBase, c.pol.BackoffCap)}
}

// OnCapacity reacts to a capacity abort of the given section site. Capacity
// blame: the footprint is the section's own, so retrying transactionally is
// pointless — take the fallback lock for this execution. The site is not
// demoted: the next execution may legitimately fit (data-dependent
// footprints), and unlike conflicts there is no remote context to wait out.
func (c *Contention) OnCapacity(key string) ContentionDecision {
	s := c.site(key)
	s.Capacities++
	s.attempts = 0
	s.Fallbacks++
	return ContentionDecision{Fallback: true}
}

// OnCommit reacts to a committed section execution. Transactional commits
// clear the attempt ledger; clean fallback executions of a demoted site
// count toward re-promotion, and the decision reports when the site earns
// its way back to the transactional path.
func (c *Contention) OnCommit(key string, viaFallback bool) (repromoted bool) {
	s := c.site(key)
	if !viaFallback {
		s.TxCommits++
		s.attempts = 0
		return false
	}
	s.FallCommits++
	if !s.Demoted {
		return false
	}
	s.cleanFall++
	if s.cleanFall >= c.pol.RepromoteWindow {
		s.Demoted = false
		s.cleanFall = 0
		s.Repromotes++
		return true
	}
	return false
}

// Report renders the governor's full state, deterministically ordered.
func (c *Contention) Report() []ContentionSiteReport {
	out := make([]ContentionSiteReport, 0, len(c.sites))
	for _, s := range c.sites {
		out = append(out, s.ContentionSiteReport)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
