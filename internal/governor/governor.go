// Package governor is the deterministic abort-recovery governor: it owns all
// post-abort policy for the speculative tiers, replacing the ad-hoc recovery
// logic that used to live in the JIT driver. NoMap's performance hinges on
// its fallback behaviour — every abort discards transactional work and
// re-executes in Baseline (paper Figure 11's squashed-work analysis, §V-C's
// footprint policy) — so the reaction to an abort must be surgical, not
// global:
//
//   - Check-abort storms at one site restore the Stack Map Point for that
//     check only (a core.KeepSet threaded into recompilation); the rest of
//     the transaction keeps its NoMap optimizations and the whole-function
//     deopt budget is not charged.
//
//   - Irrevocable aborts (I/O in a hot loop) drop the function to TxOff
//     immediately but keep the FTL tier: transactions were the problem, not
//     the speculation.
//
//   - Capacity aborts keep the paper's §V-C retreat ladder but gain
//     probationary re-promotion: after a window of clean commits at the
//     lower level the governor retries the next-higher level once, with
//     window-doubling hysteresis so a phase-flapping workload converges to
//     its stable level instead of oscillating.
//
// Every decision is a pure function of the event sequence — commit counts
// and abort causes, never wall-clock time — so fault-injection sweeps remain
// reproducible with the governor active.
package governor

import (
	"slices"
	"sort"

	"nomap/internal/core"
	"nomap/internal/htm"
)

// Policy holds the governor's deterministic tuning constants.
type Policy struct {
	// CheckAbortBudget is the per-site abort count that triggers surgical
	// SMP restoration for that site.
	CheckAbortBudget int64
	// DecayWindow is the clean-progress count after which every site
	// ledger halves, so rare benign aborts never accumulate to the budget.
	DecayWindow int64
	// RepromoteWindow is the clean-progress count (committed transactions,
	// or clean FTL calls while transactions are off) required before a
	// demoted function probes the next-higher transaction level.
	RepromoteWindow int64
	// ProbationBackoff multiplies the window after every failed probe
	// (hysteresis: flip-flopping gets exponentially rarer).
	ProbationBackoff int64
	// MaxProbations is the number of failed probes (or post-promotion
	// regressions) after which the function's level is pinned.
	MaxProbations int
	// AllowTiling mirrors the §V-C ladder shape: lightweight ROT retreats
	// through TxTiled, heavyweight RTM skips it.
	AllowTiling bool
}

// DefaultPolicy returns the tuning used by the runtime.
func DefaultPolicy(allowTiling bool) Policy {
	return Policy{
		CheckAbortBudget: 4,
		DecayWindow:      256,
		RepromoteWindow:  24,
		ProbationBackoff: 2,
		MaxProbations:    3,
		AllowTiling:      allowTiling,
	}
}

// Transfer describes one control transfer out of FTL code (a transaction
// abort or a plain OSR exit), as seen by the JIT driver.
type Transfer struct {
	// Fn is the function whose frame surfaced the transfer — for aborts,
	// the owner of the outermost transaction; level policy applies to it.
	Fn      string
	Aborted bool
	Cause   htm.AbortCause
	// Site is the failing site; ledger policy applies to it. Site.Fn may be
	// a callee executing inside Fn's transaction ("" means Fn). An inline
	// path keeps the same callee inlined at two call sites two ledger
	// entries; a dispatch-tree guard's Shape makes ledgers per-shape, so one
	// hot wrong-shape receiver is distinguishable from a megamorphic storm.
	// Dispatch misses feed the site's demotion budget instead of SMP
	// restoration or the whole-function deopt budget.
	Site core.Site
	// HadCalls reports whether the aborted transaction's function contained
	// calls (§V-C: the callee is blamed for the overflow).
	HadCalls bool
	// OSR marks a transfer out of an OSR-entry artifact; OSRPC is its
	// loop-header entry pc. The governor ledgers these per header — an
	// OSR-entry site is a first-class abort site: a header that keeps
	// ejecting execution back to Baseline stops being OSR-entered and the
	// function falls back to promotion at the invocation boundary, with the
	// same decay-based probationary re-enabling as check-site ledgers.
	OSR   bool
	OSRPC int
}

// Decision is the governor's verdict on one transfer (or clean run).
type Decision struct {
	// Recompile requests that the cached code of every function in Drop be
	// discarded so the next call recompiles under the new policy state.
	Recompile bool
	Drop      []string
	// ChargeDeopt charges the transfer against the function's whole-function
	// deopt budget (profile.Policy.MaxDeopts).
	ChargeDeopt bool
	// RestoredSMP reports that this transfer pushed a site over its abort
	// budget and its SMP will be kept from the next compile on.
	RestoredSMP bool
	// DemotedDispatch reports that this transfer pushed a dispatch site over
	// its miss budget: from the next compile on the site's plan is dropped
	// and the generic runtime path runs (megamorphic demotion).
	DemotedDispatch bool
}

// funcState is the governor's per-function state machine: the §V-C level
// ladder under Probation, and three Trips ledgers on one decay clock.
type funcState struct {
	level  core.TxLevel // operating transaction level
	proven core.TxLevel // last level that survived a full window
	// Probation drives re-promotion. Pinned is set by irrevocable aborts,
	// call-containing overflows (§V-C blames the callee; tiling cannot bound
	// callee footprints), and MaxProbations failed probes.
	Probation
	sinceDecay int64
	// sites ledgers check-site aborts (Aux: deopts); a tripped site is in the
	// keep set and stays there across decay (sticky), so the keep set is
	// stable across recompiles.
	sites Trips[core.CheckSite]
	// dispatch ledgers misses per dispatch-site family (PC+Path, no
	// Class/Shape); a tripped family's plan is dropped at the next compile
	// and the generic path runs. Decay drains a family and re-enables it.
	dispatch Trips[core.CheckSite]
	// osr ledgers transfers (aborts and plain deopts) out of OSR artifacts
	// per loop-header entry pc; a tripped header is not OSR-entered until
	// decay drains it.
	osr Trips[int]
}

// Governor owns per-function recovery state. It is deliberately keyed by
// function name (not bytecode identity): policy decisions must survive
// recompilation and code-cache invalidation.
type Governor struct {
	pol Policy
	fns map[string]*funcState
}

// New creates a governor with the given policy.
func New(pol Policy) *Governor {
	return &Governor{pol: pol, fns: make(map[string]*funcState)}
}

// Policy returns the governor's tuning constants.
func (g *Governor) Policy() Policy { return g.pol }

// Reset discards all ledgers and level state — used between differential
// runs so injected faults in one run cannot change policy in the next.
func (g *Governor) Reset() { g.fns = make(map[string]*funcState) }

func (g *Governor) state(fn string) *funcState {
	st, ok := g.fns[fn]
	if !ok {
		st = &funcState{
			level:     core.TxLoopNest,
			proven:    core.TxLoopNest,
			Probation: Probation{Window: g.pol.RepromoteWindow},
		}
		g.fns[fn] = st
	}
	return st
}

// DemoteSet returns fn's demoted dispatch-site families (nil when empty, so
// the common case costs nothing at compile time). Keys carry PC and inline
// path only; the FTL driver matches them against plan placeholders.
func (g *Governor) DemoteSet(fn string) core.KeepSet {
	if st, ok := g.fns[fn]; ok {
		return st.dispatch.set()
	}
	return nil
}

// noteDispatchMiss charges one dispatch miss (abort or deopt) to the site's
// family ledger and demotes the site once the budget is crossed. Dispatch
// misses always recompile — Baseline re-observes the receiver into the
// histogram, so the next plan covers it or the site saturates megamorphic —
// but never charge the whole-function deopt budget: demotion must win before
// Baseline pinning.
func (g *Governor) noteDispatchMiss(ss *funcState, t Transfer) Decision {
	drop := []string{t.Fn}
	if t.Site.Fn != t.Fn {
		drop = append(drop, t.Site.Fn)
	}
	return Decision{Recompile: true, DemotedDispatch: ss.dispatch.charge(t.Site.Family(), g.pol.CheckAbortBudget), Drop: drop}
}

// LevelFor returns the transaction placement level fn must compile at.
func (g *Governor) LevelFor(fn string) core.TxLevel {
	if st, ok := g.fns[fn]; ok {
		return st.level
	}
	return core.TxLoopNest
}

// KeepSet returns the restored-SMP sites for fn (nil when empty, so the
// common case costs nothing at compile time).
func (g *Governor) KeepSet(fn string) core.KeepSet {
	if st, ok := g.fns[fn]; ok {
		return st.sites.set()
	}
	return nil
}

// raise is the inverse of core.TxLevel.Lower, one rung at a time.
func raise(l core.TxLevel, allowTiling bool) core.TxLevel {
	switch l {
	case core.TxOff:
		if allowTiling {
			return core.TxTiled
		}
		return core.TxInnermost
	case core.TxTiled:
		return core.TxInnermost
	case core.TxInnermost:
		return core.TxLoopNest
	}
	return l
}

// OSRAllowed reports whether the governor permits OSR entry into fn at the
// given loop-header pc. It is true until the header's transfer ledger
// crosses the check-abort budget, and becomes true again once ledger decay
// drains it.
func (g *Governor) OSRAllowed(fn string, pc int) bool {
	st, ok := g.fns[fn]
	return !ok || !st.osr.tripped(pc)
}

// OnTransfer reacts to one abort or OSR exit surfacing in fn's frame.
func (g *Governor) OnTransfer(t Transfer) Decision {
	if t.Site.Fn == "" {
		t.Site.Fn = t.Fn
	}
	dec := g.transferDecision(t)
	// OSR-entry sites are first-class abort sites: every transfer out of an
	// OSR artifact — abort or plain deopt — charges its header's ledger. Past
	// the budget, entering optimized code mid-loop has cost more than it
	// saved; disable the header so the function promotes at the invocation
	// boundary instead.
	if t.OSR && g.state(t.Fn).osr.charge(t.OSRPC, g.pol.CheckAbortBudget) {
		dec.Recompile = true
		if !slices.Contains(dec.Drop, t.Fn) {
			dec.Drop = append(dec.Drop, t.Fn)
		}
	}
	return dec
}

func (g *Governor) transferDecision(t Transfer) Decision {
	st := g.state(t.Fn)
	site := t.Site.CheckSite

	if !t.Aborted {
		ss := g.state(t.Site.Fn)
		if t.Site.Dispatch {
			// A dispatch-guard miss outside a transaction: the receiver
			// matched no speculated way. Per-shape ledger plus family
			// demotion budget; never the whole-function deopt budget.
			ss.sites.bump(site, 0, 1)
			return g.noteDispatchMiss(ss, t)
		}
		// Plain OSR exit. A restored-SMP site deopting is the governed
		// steady state: the tail of the call re-runs in Baseline, the
		// cached code stays, and the budget is untouched. Any other exit
		// keeps the plain budget semantics — charge it and recompile
		// with refreshed feedback, which is how type storms self-heal.
		if ss.sites.tripped(site) {
			ss.sites.bump(site, 0, 1)
			return Decision{}
		}
		return Decision{Recompile: true, ChargeDeopt: true, Drop: []string{t.Fn}}
	}

	switch t.Cause {
	case htm.AbortIrrevocable:
		// Transactions meet I/O: remove them for good, keep the tier, and
		// do not touch the deopt budget — the speculation was fine.
		st.level, st.proven = core.TxOff, core.TxOff
		st.pin()
		return Decision{Recompile: true, Drop: []string{t.Fn}}

	case htm.AbortCapacity:
		if st.Probing {
			// The probe failed: fall back to the proven level and back off.
			st.level = st.proven
			st.fail(g.pol.ProbationBackoff, g.pol.MaxProbations)
		} else {
			if st.Promoted {
				// A confirmed promotion regressed — hysteresis, so a
				// phase-flapping workload converges instead of oscillating.
				st.fail(g.pol.ProbationBackoff, g.pol.MaxProbations)
			}
			st.Promoted = false
			st.level = st.level.Lower(t.HadCalls, g.pol.AllowTiling)
			st.proven = st.level
			if t.HadCalls {
				// §V-C blames the callee for the overflow; tiling cannot
				// bound a callee's footprint, so probing is pointless.
				st.pin()
			}
		}
		st.Progress = 0
		return Decision{Recompile: true, Drop: []string{t.Fn}}

	default: // AbortCheck, AbortSOF
		ss := g.state(t.Site.Fn)
		if t.Site.Dispatch {
			// In-transaction dispatch miss (the tail guard aborted): same
			// demotion ledger as the deopt path — dispatch guards demote to
			// the generic path rather than earning restored SMPs.
			ss.sites.bump(site, 1, 0)
			return g.noteDispatchMiss(ss, t)
		}
		// Below budget: recompile with refreshed feedback (heals type and
		// overflow storms) but never charge the whole-function budget for
		// a transactional abort. At budget: restore the site's SMP.
		restored := ss.sites.charge(site, g.pol.CheckAbortBudget)
		drop := []string{t.Fn}
		if restored && t.Site.Fn != t.Fn {
			drop = append(drop, t.Site.Fn)
		}
		return Decision{Recompile: true, RestoredSMP: restored, Drop: drop}
	}
}

// OnClean reacts to a deopt-free FTL call of fn that committed `commits`
// outermost transactions. Progress is measured in commits where transactions
// run, and in clean calls where they are off (a TxOff function commits
// nothing, yet must still be able to earn a probe).
func (g *Governor) OnClean(fn string, commits int64) Decision {
	st := g.state(fn)
	units := max(commits, 1)

	// Deterministic ledger decay, counted in clean progress. Kept SMPs
	// survive it; a drained dispatch family or OSR header is re-enabled, so
	// the next recompile re-expands the dispatch tree and the next hot run
	// gets one more chance to enter mid-loop.
	st.sinceDecay += units
	if st.sinceDecay >= g.pol.DecayWindow {
		st.sinceDecay = 0
		st.sites.decay(true)
		st.dispatch.decay(false)
		st.osr.decay(false)
	}

	start, confirmed := st.clean(units, st.level == core.TxLoopNest)
	if confirmed {
		// Probe survived a full window: the higher level is proven.
		st.proven = st.level
	}
	if start {
		// Earned a probation: try one level higher on the next compile.
		st.level = raise(st.level, g.pol.AllowTiling)
		return Decision{Recompile: true, Drop: []string{fn}}
	}
	return Decision{}
}

// FuncSnap is one function's complete governor state in portable form: plain
// data keyed by function name and bytecode check site, valid across isolates
// of the same program. Sites rows carry aborts in N, deopts in Aux and the
// restored SMP in On; Dispatch rows are per-family misses, On when demoted;
// OSR rows are keyed by loop-header pc, On when OSR entry is disabled.
type FuncSnap struct {
	Fn     string
	Level  core.TxLevel
	Proven core.TxLevel
	Probation
	SinceDecay int64
	Sites      []Ledger[core.CheckSite]
	Dispatch   []Ledger[core.CheckSite]
	OSR        []Ledger[int]
}

// Snapshot is the governor's exported ledger state, deterministically
// ordered; it is also the diagnostic report. The warm-start facility captures
// it after a donor isolate's warmup and restores it into fresh isolates, so a
// repeat program starts at its converged transaction levels and kept-SMP sets
// instead of re-learning them through aborts.
type Snapshot []FuncSnap

// Export captures the full per-function state under the current policy.
func (g *Governor) Export() Snapshot {
	names := make([]string, 0, len(g.fns))
	for n := range g.fns {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := make(Snapshot, 0, len(names))
	for _, n := range names {
		st := g.fns[n]
		snap = append(snap, FuncSnap{
			Fn: n, Level: st.level, Proven: st.proven,
			Probation: st.Probation, SinceDecay: st.sinceDecay,
			Sites:    st.sites.export(core.CheckSite.Less),
			Dispatch: st.dispatch.export(core.CheckSite.Less),
			OSR:      st.osr.export(func(a, b int) bool { return a < b }),
		})
	}
	return snap
}

// Restore replaces the governor's per-function state with the snapshot's,
// keeping the current policy. Restoring Export()'s output into a fresh
// governor reproduces the donor's decision state exactly.
func (g *Governor) Restore(snap Snapshot) {
	g.fns = make(map[string]*funcState, len(snap))
	for _, fs := range snap {
		st := &funcState{level: fs.Level, proven: fs.Proven, Probation: fs.Probation, sinceDecay: fs.SinceDecay}
		st.sites.restore(fs.Sites)
		st.dispatch.restore(fs.Dispatch)
		st.osr.restore(fs.OSR)
		g.fns[fs.Fn] = st
	}
}
