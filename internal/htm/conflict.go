package htm

import (
	"fmt"
	"sync"
)

// Cross-isolate conflict detection. The original model simulates a
// single-threaded JavaScript isolate, where transactions can never conflict;
// the shared-heap scenario class lets multiple isolates' hardware contexts
// race on mutable shared structures, so the HTM model grows the third abort
// family real hardware has: read/write-set conflicts, detected through cache
// coherence at cache-line granularity.
//
// A Domain is the coherence fabric connecting the hardware contexts of one
// shared-heap group. Each System attaches with a distinct owner id; while a
// transaction is open, every tracked line is registered in the domain's
// ownership table, and an access that collides with another context's
// footprint fails with a ConflictError. The policy is requester-loses: the
// context performing the conflicting access aborts itself, which is
// deterministic under the oracle's scheduled execution (the victim is always
// the context the scheduler chose to step).
//
// Conflict detection is coherence-based, not capacity-based: a lightweight
// rollback-only HTM that does not buffer its read footprint in cache tags
// still observes invalidations, so reads are conflict-tracked in a domain
// even when the configuration has no read-set capacity (ReadSets == 0). Such
// lines consume no capacity; they only participate in conflict detection.
//
// The domain also carries the software fallback lock. Transactions subscribe
// to it the way hardware lock elision does: an open transaction observing the
// lock held (at begin, at any shared access, or at commit) aborts with a
// conflict attributed to AttrLock, and the fallback path's writes kill every
// open transaction's speculation through the same ownership table.

// Attribution records which side of a conflict the surviving footprint held.
type Attribution uint8

const (
	// AttrNone marks a non-conflict (or an injected conflict with no real
	// opposing footprint).
	AttrNone Attribution = iota
	// AttrReader: the requester's write collided with a line another open
	// transaction holds in its read set.
	AttrReader
	// AttrWriter: the requester's access collided with a line another open
	// transaction holds in its write set.
	AttrWriter
	// AttrLock: the access observed the domain's software fallback lock held
	// (or a fallback writer invalidated the transaction's footprint).
	AttrLock
)

// String names the attribution.
func (a Attribution) String() string {
	switch a {
	case AttrNone:
		return "none"
	case AttrReader:
		return "reader"
	case AttrWriter:
		return "writer"
	case AttrLock:
		return "lock"
	}
	return "?"
}

// ConflictError signals that a transactional access collided with another
// hardware context's transactional footprint (or with the fallback lock).
type ConflictError struct {
	// Write reports whether the requester's access was a store.
	Write bool
	// Line is the conflicting cache line.
	Line uint64
	// With is the owner id of the opposing context (-1 for injected
	// conflicts and fallback-lock kills).
	With int
	// Attr tells whether the opposing context held the line as a reader or
	// a writer, or whether the fallback lock caused the kill.
	Attr Attribution
}

func (e *ConflictError) Error() string {
	kind := "load"
	if e.Write {
		kind = "store"
	}
	return fmt.Sprintf("htm: transactional %s conflicts on line %#x with context %d (%s)",
		kind, e.Line, e.With, e.Attr)
}

// ConflictProbe is consulted once per conflict-tracked cache line. Returning
// true forces a conflict abort for that access, as if a remote context owned
// the target line — the schedule-sweep oracle uses this to force a conflict
// at an arbitrary shared access. Production runs install none.
type ConflictProbe func(write bool, line uint64) bool

// lineState is one cache line's domain-wide transactional ownership.
type lineState struct {
	writer  int // owner id holding the line in a write set, or -1
	readers map[int]struct{}
}

// Domain is the coherence fabric shared by the hardware contexts of one
// shared-heap group.
//
// Locking discipline: the embedded mutex serializes whole executor steps, not
// individual method calls. The shared-section executor holds the lock across
// one atomic step (an access plus its footprint bookkeeping); acquire and
// release assume the caller holds it. This keeps the deterministic scheduled
// mode and the real-goroutine mode on the identical code path — the
// scheduler simply makes the lock uncontended.
type Domain struct {
	mu    sync.Mutex
	lines map[uint64]*lineState

	fallbackHeld  bool
	fallbackOwner int
}

// NewDomain creates an empty conflict domain.
func NewDomain() *Domain {
	return &Domain{lines: make(map[uint64]*lineState)}
}

// Lock serializes one executor step. See the locking discipline note above.
func (d *Domain) Lock() { d.mu.Lock() }

// Unlock releases the step lock.
func (d *Domain) Unlock() { d.mu.Unlock() }

// FallbackHeld reports whether the software fallback lock is held. Caller
// must hold the domain lock.
func (d *Domain) FallbackHeld() bool { return d.fallbackHeld }

// AcquireFallback takes the software fallback lock for owner. It reports
// false (without blocking) when the lock is already held by another owner.
// Caller must hold the domain lock.
func (d *Domain) AcquireFallback(owner int) bool {
	if d.fallbackHeld {
		return false
	}
	d.fallbackHeld = true
	d.fallbackOwner = owner
	return true
}

// ReleaseFallback drops the software fallback lock. Caller must hold the
// domain lock.
func (d *Domain) ReleaseFallback(owner int) {
	if !d.fallbackHeld || d.fallbackOwner != owner {
		panic("htm: fallback release without matching acquire")
	}
	d.fallbackHeld = false
}

// state returns (creating on demand) the ownership record for a line.
func (d *Domain) state(line uint64) *lineState {
	ls, ok := d.lines[line]
	if !ok {
		ls = &lineState{writer: -1}
		d.lines[line] = ls
	}
	return ls
}

// acquire registers owner's transactional access to line and detects
// conflicts with other contexts' footprints. Caller must hold the domain
// lock; requester-loses, so a non-nil error means the caller should abort
// its own transaction with AbortConflict.
func (d *Domain) acquire(owner int, line uint64, write bool) *ConflictError {
	if d.fallbackHeld && d.fallbackOwner != owner {
		return &ConflictError{Write: write, Line: line, With: -1, Attr: AttrLock}
	}
	ls := d.state(line)
	if ls.writer >= 0 && ls.writer != owner {
		return &ConflictError{Write: write, Line: line, With: ls.writer, Attr: AttrWriter}
	}
	if write {
		for r := range ls.readers {
			if r != owner {
				return &ConflictError{Write: true, Line: line, With: r, Attr: AttrReader}
			}
		}
		ls.writer = owner
		return nil
	}
	if ls.readers == nil {
		ls.readers = make(map[int]struct{}, 2)
	}
	ls.readers[owner] = struct{}{}
	return nil
}

// release drops every line owner holds in the given transaction's footprint.
// Caller must hold the domain lock.
func (d *Domain) release(owner int, t *Txn) {
	drop := func(line uint64) {
		ls, ok := d.lines[line]
		if !ok {
			return
		}
		if ls.writer == owner {
			ls.writer = -1
		}
		delete(ls.readers, owner)
		if ls.writer < 0 && len(ls.readers) == 0 {
			delete(d.lines, line)
		}
	}
	for line := range t.writeLines {
		drop(line)
	}
	for line := range t.readLines {
		drop(line)
	}
	for line := range t.conflictReads {
		drop(line)
	}
}

// AttachDomain joins the system to a conflict domain under the given owner
// id. Every open transaction's tracked lines then participate in
// cross-context conflict detection. Pass nil to detach.
func (s *System) AttachDomain(d *Domain, owner int) {
	s.domain = d
	s.owner = owner
}

// Domain returns the attached conflict domain (nil when detached).
func (s *System) Domain() *Domain { return s.domain }

// Owner returns the system's owner id within its domain.
func (s *System) Owner() int { return s.owner }

// SetConflictProbe installs (or clears, with nil) the forced-conflict probe.
func (s *System) SetConflictProbe(p ConflictProbe) { s.conflictProbe = p }
