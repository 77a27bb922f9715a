package machine

import (
	"fmt"

	"nomap/internal/htm"
	"nomap/internal/ir"
	"nomap/internal/stats"
)

// Fault injection. The oracle subsystem (internal/oracle) needs to force a
// transaction abort or a deoptimization at an arbitrary point of a run and
// then prove the fallback path re-executes with identical observable
// behaviour. The machine exposes its decision points — every check, every
// transaction begin/commit/tile — through the Injector interface below.
// Production runs install no injector; the only cost on the hot path is one
// nil check per site.

// SiteKind classifies an injectable site.
type SiteKind uint8

const (
	// SiteCheck is a speculation check: with a stack map (SMP) it deopts on
	// failure, without one (SMP turned abort by NoMap) it aborts the
	// enclosing transaction.
	SiteCheck SiteKind = iota
	// SiteTxBegin fires immediately after an outermost transaction opens.
	SiteTxBegin
	// SiteTxCommit fires immediately before an outermost commit retires.
	SiteTxCommit
	// SiteTxTile fires at each TxTile point while its transaction is open.
	SiteTxTile
	// SiteDispatch is a dispatch tree's non-deopting predicate (OpHasShape /
	// OpHasCallee): ActFailCheck forces the predicate false (the way is
	// skipped, cascading to the tail guard), ActPassCheck forces it true (the
	// oracle's stale-shape-cache planted bug: the wrong way's specialized body
	// runs for a receiver it was not built for).
	SiteDispatch
)

// String names the site kind.
func (k SiteKind) String() string {
	switch k {
	case SiteCheck:
		return "check"
	case SiteTxBegin:
		return "tx-begin"
	case SiteTxCommit:
		return "tx-commit"
	case SiteTxTile:
		return "tx-tile"
	case SiteDispatch:
		return "dispatch"
	}
	return "?"
}

// SiteKey is the static identity of one injectable point, comparable so the
// oracle keys its enumeration by it. It is stable across the deterministic
// re-runs the oracle performs: the same program compiled at the same point in
// the run under the same configuration produces the same IR value numbering.
type SiteKey struct {
	Kind SiteKind
	// Fn is the executing function's name.
	Fn string
	// OSR is the artifact's OSR-entry loop-header pc, or -1 for an
	// invocation-entry artifact. OSR artifacts number their values from a
	// fresh builder, so (Fn, ValueID) alone would collide with the main
	// artifact's sites; OSR disambiguates them.
	OSR int
	// ValueID is the IR value id of the site's op.
	ValueID int
	// Inline is the inline path of the site ("callee@pc" segments, root to
	// leaf) when the site lives in code the inliner flattened into Fn; ""
	// for sites in the root function's own code. ValueID already
	// disambiguates; Inline and Shape let sweep reports name the flattened
	// activation and the dispatch way a fault was forced on.
	Inline string
	// Shape names the per-shape dispatch variant for SiteDispatch sites and
	// for dispatch-marked tail guards ("" for every other site, so existing
	// site identity is unchanged when no dispatch trees are in play).
	Shape string
}

// siteKey names the injectable point at v in f's compiled code. A value
// belongs to one artifact and never changes once installed, so its key is
// built on the first visit and reused: the inline path and dispatch shape
// are strings an injection run would otherwise render at every visit.
func (m *Machine) siteKey(kind SiteKind, f *ir.Func, v *ir.Value) SiteKey {
	if k, ok := m.siteKeys[v]; ok && k.Kind == kind {
		return k
	}
	k := SiteKey{Kind: kind, Fn: f.Name, OSR: f.OSREntryPC, ValueID: v.ID,
		Inline: v.InlinePath(), Shape: v.DispatchShape()}
	if m.siteKeys == nil {
		m.siteKeys = make(map[*ir.Value]SiteKey)
	}
	m.siteKeys[v] = k
	return k
}

// String renders the key for logs and sweep reports.
func (k SiteKey) String() string {
	s := fmt.Sprintf("%s@%s", k.Kind, k.Fn)
	if k.OSR >= 0 {
		s += fmt.Sprintf("+osr%d", k.OSR)
	}
	if k.Inline != "" {
		s += fmt.Sprintf("+inl[%s]", k.Inline)
	}
	if k.Shape != "" {
		s += fmt.Sprintf("+shape[%s]", k.Shape)
	}
	return fmt.Sprintf("%s:v%d", s, k.ValueID)
}

// Site is one dynamic visit of an injectable point: its key plus what the
// machine observed there.
type Site struct {
	SiteKey
	// Check is the check's class (SiteCheck only).
	Check stats.CheckClass
	// HasSMP reports the check carries a stack map: failure deopts instead
	// of aborting (SiteCheck only).
	HasSMP bool
	// InTx reports whether a hardware transaction is open at the site.
	InTx bool
	// Failed reports the check's real outcome (SiteCheck and SiteDispatch) so
	// an injector can react to failures it did not itself force.
	Failed bool
}

// Action is an injector's verdict for one site visit.
type Action uint8

const (
	// ActNone leaves the site alone.
	ActNone Action = iota
	// ActFailCheck forces the check to fail: a deopt for SMP checks, a
	// transactional abort for converted checks. Ignored at non-check sites
	// and at checks that can neither deopt nor abort.
	ActFailCheck
	// ActPassCheck forces a failing check to be treated as passed. This is
	// the oracle's planted compiler bug — a check removed without
	// transactional protection — and exists only so the differential oracle
	// can prove it catches that class of miscompilation.
	ActPassCheck
	// ActAbortCapacity aborts the open transaction as a capacity overflow.
	ActAbortCapacity
	// ActAbortSOF aborts the open transaction as a sticky-overflow event.
	ActAbortSOF
	// ActAbortIrrevocable aborts the open transaction as an irrevocable
	// event.
	ActAbortIrrevocable
	// ActTileCommit forces a TxTile point to commit-and-reopen even though
	// the footprint is below the tiling threshold (SiteTxTile only).
	ActTileCommit
)

// Injector is consulted at every injectable site of a run.
// Implementations must be deterministic: the oracle relies on a re-run
// visiting the same site sequence up to the first injected fault.
type Injector interface {
	At(site Site) Action
}

// SetInjector installs (or clears, with nil) the fault injector.
func (m *Machine) SetInjector(i Injector) { m.inject = i }

// abortCause maps an abort action to its HTM cause; ok is false for
// non-abort actions.
func (a Action) abortCause() (htm.AbortCause, bool) {
	switch a {
	case ActAbortCapacity:
		return htm.AbortCapacity, true
	case ActAbortSOF:
		return htm.AbortSOF, true
	case ActAbortIrrevocable:
		return htm.AbortIrrevocable, true
	}
	return 0, false
}
