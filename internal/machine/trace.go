package machine

import (
	"fmt"

	"nomap/internal/htm"
	"nomap/internal/profile"
	"nomap/internal/stats"
)

// EventKind classifies trace events. One enum covers the machine's
// execution events and the serving pool's resilience transitions, so every
// layer reports through the same Tracer.
type EventKind uint8

const (
	// EventTxBegin fires when an outermost transaction opens.
	EventTxBegin EventKind = iota
	// EventTxCommit fires when an outermost transaction commits.
	EventTxCommit
	// EventTxTileCommit fires when a tile commit splits a transaction at a
	// loop back edge (§V-C).
	EventTxTileCommit
	// EventTxAbort fires when a transaction aborts (any cause).
	EventTxAbort
	// EventDeopt fires on an OSR exit to the Baseline tier.
	EventDeopt
	// EventCompile fires when the JIT compiles a function for a tier.
	EventCompile
	// EventOSREntry fires when a hot loop's frame enters an OSR artifact
	// mid-execution (the inverse transfer of EventDeopt).
	EventOSREntry
	// EventBackoff fires when a shared-section worker serves a randomized
	// contention-backoff window after a conflict abort.
	EventBackoff
	// EventFallbackAcquire fires when a shared section takes the software
	// fallback lock (aborts stormed past the retry budget, or the section's
	// site is demoted).
	EventFallbackAcquire
	// EventFallbackRelease fires when the software fallback lock is dropped
	// at the end of a fallback-executed section.
	EventFallbackRelease
	// EventRepromote fires when a demoted shared section earns its way back
	// to the transactional fast path after a clean fallback window.
	EventRepromote
	// EventICMiss fires when a dispatch tree's tail guard fails: the receiver
	// matched none of the site's speculated ways.
	EventICMiss
	// EventICFill fires when the JIT compiles a function containing dispatch
	// trees (one event per site, after a fresh compile only).
	EventICFill
	// EventICHit fires the first time a site's guard chain matches a receiver
	// (once per site per machine reset, to keep traces bounded).
	EventICHit
	// EventICTransition fires the first time a site executes a speculated
	// shape transition (property add under a matching shape guard).
	EventICTransition
	// EventICDemote fires when the governor demotes a megamorphic dispatch
	// site to the generic runtime path.
	EventICDemote

	// EventCrash fires when a panic was contained inside a serving isolate.
	EventCrash
	// EventQuarantine fires when the crash was charged to its (program,
	// site) fingerprint in the quarantine ledger.
	EventQuarantine
	// EventRetire fires when the fingerprint crossed the retirement budget
	// and is permanently retired.
	EventRetire
	// EventReplace fires when a crashed isolate was discarded and a fresh
	// replacement installed in the free list.
	EventReplace
	// EventRetry fires when a transiently failed request was granted a
	// fresh-isolate retry after a deterministic backoff window.
	EventRetry
	// EventRetryExhausted fires when a request consumed its whole retry
	// budget.
	EventRetryExhausted
	// EventStepDown fires when the degradation ladder dropped the fleet
	// ceiling one rung.
	EventStepDown
	// EventShed / EventShedClear fire when load-shedding begins / ends.
	EventShed
	EventShedClear
	// EventProbe fires when a probationary re-promotion began one rung up.
	EventProbe
	// EventProbeFail fires when a fault ended a probation (window doubled).
	EventProbeFail
	// EventLadderRepromote fires when a fleet probation survived its window
	// and the rung is proven (EventRepromote is a shared section's).
	EventLadderRepromote
	// EventSnapshotReject fires when a warm-start snapshot failed its
	// integrity seal and the request was served cold.
	EventSnapshotReject

	// NumEventKinds sizes per-kind tables; it is not a kind.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	EventTxBegin:         "tx-begin",
	EventTxCommit:        "tx-commit",
	EventTxTileCommit:    "tx-tile-commit",
	EventTxAbort:         "tx-abort",
	EventDeopt:           "deopt",
	EventCompile:         "compile",
	EventOSREntry:        "osr-entry",
	EventBackoff:         "contention-backoff",
	EventFallbackAcquire: "fallback-acquire",
	EventFallbackRelease: "fallback-release",
	EventRepromote:       "repromote",
	EventICMiss:          "ic-miss",
	EventICFill:          "ic-fill",
	EventICHit:           "ic-hit",
	EventICTransition:    "ic-transition",
	EventICDemote:        "ic-demote",
	EventCrash:           "crash",
	EventQuarantine:      "quarantine",
	EventRetire:          "retire",
	EventReplace:         "replace",
	EventRetry:           "retry",
	EventRetryExhausted:  "retry-exhausted",
	EventStepDown:        "degrade",
	EventShed:            "shed",
	EventShedClear:       "shed-clear",
	EventProbe:           "probe",
	EventProbeFail:       "probe-fail",
	EventLadderRepromote: "repromote",
	EventSnapshotReject:  "snapshot-reject",
}

// String names the kind.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventKindNames[k]
	}
	return "?"
}

// Event is one trace record. Only the fields relevant to the kind are set,
// and every field is comparable, so an Event can key a map.
type Event struct {
	Kind EventKind
	// Cause is the abort cause for EventTxAbort.
	Cause htm.AbortCause
	// CheckClass is the failing check's class for aborts and deopts caused
	// by a check.
	CheckClass stats.CheckClass
	// Tier is the tier compiled for EventCompile, the tier an OSR entry
	// runs, a replaced isolate's tier cap, or the fleet cap after a ladder
	// move.
	Tier profile.Tier
	// Attr is the conflict attribution (shared-heap aborts only).
	Attr htm.Attribution
	// Fn is the function involved.
	Fn string
	// PC is the Baseline bytecode pc execution transfers to (aborts/deopts).
	PC int
	// Inline is the inline path of the deopt's innermost reconstructed frame
	// ("" when the deopt resumes in the compiled function's own code).
	Inline string
	// WriteBytes is the transactional write footprint (commit/abort/tile).
	WriteBytes int64
	// N is the kind's count: the backoff window in cycles (EventBackoff,
	// EventRetry), a dispatch tree's ways (EventICFill) or a fingerprint's
	// crash charge (EventQuarantine, EventRetire).
	N int64
	// Shape names the per-shape dispatch variant (IC events only): the
	// receiver shape's transition path or the guarded callee's name.
	Shape string
	// Program is the interned program's content hash (pool events).
	Program uint64
	// Site is the crash fingerprint's site (crash and ledger events).
	Site string
	// Attempt is the 1-based serve attempt (crash and retry events).
	Attempt int
}

// String renders the event as one stable log and golden-trace line.
func (e Event) String() string {
	switch e.Kind {
	case EventTxBegin:
		return fmt.Sprintf("[%s] %s", e.Kind, e.Fn)
	case EventTxCommit, EventTxTileCommit:
		return fmt.Sprintf("[%s] %s write-footprint=%dB", e.Kind, e.Fn, e.WriteBytes)
	case EventTxAbort:
		if e.Cause == htm.AbortConflict {
			return fmt.Sprintf("[%s] %s cause=%s attr=%s write-footprint=%dB",
				e.Kind, e.Fn, e.Cause, e.Attr, e.WriteBytes)
		}
		return fmt.Sprintf("[%s] %s cause=%s check=%s resume@%d write-footprint=%dB",
			e.Kind, e.Fn, e.Cause, e.CheckClass, e.PC, e.WriteBytes)
	case EventDeopt:
		if e.Inline != "" {
			return fmt.Sprintf("[%s] %s check=%s resume@%d inline=%s", e.Kind, e.Fn, e.CheckClass, e.PC, e.Inline)
		}
		return fmt.Sprintf("[%s] %s check=%s resume@%d", e.Kind, e.Fn, e.CheckClass, e.PC)
	case EventCompile:
		return fmt.Sprintf("[%s] %s tier=%s", e.Kind, e.Fn, e.Tier)
	case EventOSREntry:
		return fmt.Sprintf("[%s] %s header@%d tier=%s", e.Kind, e.Fn, e.PC, e.Tier)
	case EventBackoff:
		return fmt.Sprintf("[%s] %s window=%dcy", e.Kind, e.Fn, e.N)
	case EventFallbackAcquire, EventFallbackRelease, EventRepromote:
		return fmt.Sprintf("[%s] %s", e.Kind, e.Fn)
	case EventICFill:
		return fmt.Sprintf("[%s] %s site@%d ways=%d", e.Kind, e.Fn, e.PC, e.N)
	case EventICHit, EventICTransition, EventICMiss:
		return fmt.Sprintf("[%s] %s site@%d shape=%s", e.Kind, e.Fn, e.PC, e.Shape)
	case EventICDemote:
		return fmt.Sprintf("[%s] %s site@%d", e.Kind, e.Fn, e.PC)
	case EventCrash:
		return fmt.Sprintf("%s prog=%08x site=%s attempt=%d", e.Kind, e.Program, e.Site, e.Attempt)
	case EventQuarantine, EventRetire:
		return fmt.Sprintf("%s prog=%08x site=%s crashes=%d", e.Kind, e.Program, e.Site, e.N)
	case EventReplace:
		return fmt.Sprintf("%s prog=%08x tier=%v", e.Kind, e.Program, e.Tier)
	case EventRetry:
		return fmt.Sprintf("%s prog=%08x attempt=%d backoff=%d", e.Kind, e.Program, e.Attempt, e.N)
	case EventRetryExhausted:
		return fmt.Sprintf("%s prog=%08x attempts=%d", e.Kind, e.Program, e.Attempt)
	case EventStepDown, EventProbe, EventProbeFail, EventLadderRepromote:
		return fmt.Sprintf("%s cap=%v", e.Kind, e.Tier)
	case EventShed, EventShedClear:
		return e.Kind.String()
	case EventSnapshotReject:
		return fmt.Sprintf("%s prog=%08x", e.Kind, e.Program)
	}
	return "[?]"
}

// Tracer receives execution events. It must not call back into the engine.
type Tracer func(Event)

// Emit sends e to the tracer; a nil Tracer drops it.
func (t Tracer) Emit(e Event) {
	if t != nil {
		t(e)
	}
}

// SetTracer installs (or clears, with nil) the event tracer.
func (m *Machine) SetTracer(t Tracer) { m.trace = t }

// Emit sends an event to the installed tracer. Exposed so the JIT driver
// can report compile events through the same stream.
func (m *Machine) Emit(e Event) { m.trace.Emit(e) }
