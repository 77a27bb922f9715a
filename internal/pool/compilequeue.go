// The off-request-path compile queue and the cold-start coalescing table.
//
// With Config.AsyncCompile, tier-up compilation never runs on a serving
// goroutine: the JIT backend's compile sink offers a job here, the request
// keeps executing at its current-best tier, and a background worker
// "rehearses" the program on a spare isolate — loading it, restoring any
// warm-start snapshot, and calling the entry point until the speculative
// tiers compile through the shared code cache's normal synchronous path.
// Every isolate then pulls the finished artifacts as cache hits. The
// rehearsal is the only writer the design needs: compiling a donor
// function's IR on a background goroutine while the owning isolate mutates
// its profiles would race, so the queue moves the whole isolate, not the
// compile closure.
//
// Admission control keeps the queue from defeating its purpose under
// overload: when the sliding-window p99 exceeds the SLO, FTL jobs down-tier
// to DFG (cheaper compiles, most of the win); past 2×SLO — or when the
// bounded queue is full — jobs are shed entirely and the degradation ladder
// is charged at a limited rate, folding compile pressure into the same
// FTL→DFG→Baseline→shed discipline the resilience machinery already
// enforces for faults.
package pool

import (
	"context"
	"time"

	"nomap/internal/isolate"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/value"
)

// joinCold registers interest in a cold start of key k: the first caller
// becomes the flight leader (serves cold, saves the snapshot, then leaves),
// later callers get the existing flight to wait on.
func (p *Pool) joinCold(k isolate.StoreKey) (*coldFlight, bool) {
	p.flightsMu.Lock()
	defer p.flightsMu.Unlock()
	if fl, ok := p.flights[k]; ok {
		return fl, false
	}
	fl := &coldFlight{done: make(chan struct{})}
	p.flights[k] = fl
	return fl, true
}

// leaveCold closes the leader's flight, releasing every waiter. It runs on
// all exits from the leader's serve attempt, success or not — a failed
// leader releases its followers to serve cold themselves.
func (p *Pool) leaveCold(k isolate.StoreKey, fl *coldFlight) {
	p.flightsMu.Lock()
	delete(p.flights, k)
	p.flightsMu.Unlock()
	close(fl.done)
}

// waitCold blocks until the flight completes, the request's deadline
// passes, or its context is cancelled. A timed-out waiter simply proceeds
// cold; the boundary checks surface the deadline if it truly expired.
func (p *Pool) waitCold(fl *coldFlight, deadline time.Time, ctx context.Context) {
	var timer <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timer = t.C
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-fl.done:
	case <-timer:
	case <-cancel:
	}
}

// offerCompile admits one background compile job. Dedup is per
// (program, spec) — one rehearsal fills every tier on the way up — and
// admission control translates tail-latency pressure into down-tiered or
// shed compile work.
func (p *Pool) offerCompile(job compileJob) {
	if p.compileQ == nil {
		return
	}
	key := pendKey{prog: job.entry.Hash, s: job.s}
	p.pendMu.Lock()
	if p.pending[key] {
		p.pendMu.Unlock()
		return
	}
	p.pending[key] = true
	p.pendMu.Unlock()

	if p.cfg.SLO > 0 {
		p99 := p.latencyP99()
		if p99 > 2*p.cfg.SLO {
			p.shedCompile(key)
			return
		}
		if p99 > p.cfg.SLO && job.tier > profile.TierDFG {
			job.tier = profile.TierDFG
			p.compileDowns.Add(1)
		}
	}
	select {
	case p.compileQ <- job:
		p.compileJobs.Add(1)
	default:
		p.shedCompile(key)
	}
}

// shedCompile abandons a job before it runs: the pending mark clears so a
// later request re-offers the key once pressure subsides. With an SLO
// configured, every eighth shed charges the degradation ladder — compile
// starvation under a latency contract is a fleet fault, but charging every
// shed would slam the ladder to the bottom during a single burst. Without
// an SLO there is no contract to defend: a queue-full shed is just a
// deferral, counted but never escalated.
func (p *Pool) shedCompile(key pendKey) {
	p.pendMu.Lock()
	delete(p.pending, key)
	p.pendMu.Unlock()
	if p.compileSheds.Add(1)%8 == 1 && p.cfg.SLO > 0 {
		p.ladder(p.res.OnFault())
	}
}

func (p *Pool) compileWorker() {
	defer p.cwg.Done()
	for job := range p.compileQ {
		p.runCompileJob(job)
		p.pendMu.Lock()
		delete(p.pending, pendKey{prog: job.entry.Hash, s: job.s})
		p.pendMu.Unlock()
		p.compileDone.Add(1)
	}
}

// runCompileJob rehearses the program on a spare isolate: load, warm-start
// restore when available, then enough entry-point calls for the speculative
// tiers to compile through the shared cache. The rehearsal isolate follows
// the exact execution path a serving isolate would, so the profile
// fingerprints in its cache keys match the keys serving isolates look up
// (the fingerprint hashes only the consumed feedback lattice, never raw
// counts). A down-tiered job caps the rehearsal at DFG; the ladder's tier
// cap applies as everywhere else.
func (p *Pool) runCompileJob(job compileJob) {
	s := job.s
	if job.tier >= profile.TierDFG && job.tier < s.maxTier {
		s.maxTier = job.tier
	}
	if cap := p.res.TierCap(); s.maxTier > cap {
		s.maxTier = cap
	}
	iso := p.take(s)
	defer func() {
		if rec := recover(); rec != nil {
			// A rehearsal crash tears only the spare isolate: discard it,
			// eagerly install a replacement, and leave the request path
			// untouched.
			p.replace(s)
			p.emit(Event{Kind: machine.EventReplace, Program: job.entry.Hash, Tier: s.maxTier})
			return
		}
		p.put(iso)
	}()
	if err := iso.Load(job.entry); err != nil {
		return
	}
	restored := false
	skey := isolate.KeyFor(iso.Config(), job.entry)
	if snap := p.snaps.Get(skey); snap != nil {
		restored = iso.Restore(snap) == nil
	}
	for i := 0; i < p.cfg.CompileWarmCalls; i++ {
		if _, err := iso.VM().CallGlobal("run", value.Int(int32(job.arg))); err != nil {
			return
		}
	}
	// Publish the rehearsal's warm state so the whole fleet cold-starts from
	// it — but only when the rehearsal ran at the spec's full tier (a
	// down-tiered rehearsal's key would not match serving isolates anyway).
	if !restored && s.maxTier == job.s.maxTier {
		p.snaps.SaveOnce(skey, iso.Snapshot())
	}
}
