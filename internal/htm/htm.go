// Package htm simulates the two hardware transactional memories the paper
// evaluates (paper §V-A, §VI-A/B):
//
//   - Lightweight, rollback-only HTM modelled on IBM POWER8's ROT mode: only
//     the write footprint is tracked (it must fit the 256KB 8-way L2), commit
//     is a flash-clear of speculative-write bits (~5 cycles), transaction
//     begin costs a fence, and a Sticky Overflow Flag (SOF) is provided.
//
//   - Heavyweight Intel RTM: transactional writes must fit the 32KB 8-way
//     L1D, reads are also tracked and must fit the 256KB L2, commit stalls
//     for the write buffer (~13 cycles), in-transaction reads are ~20%
//     slower, and there is no SOF.
//
// A single JavaScript isolate is single-threaded, so its aborts are caused by
// failed checks, capacity overflow, SOF, or irrevocable events. The
// shared-heap scenario class additionally connects the hardware contexts of
// multiple isolates through a conflict Domain (see conflict.go), which adds
// the abort family real HTMs are built around: cross-context read/write-set
// conflicts detected through cache coherence at line granularity.
package htm

import (
	"errors"
	"fmt"

	"nomap/internal/stats"
)

// Mode selects the HTM flavour.
type Mode uint8

const (
	// ModeROT is the lightweight rollback-only mode (IBM POWER8 ROT).
	ModeROT Mode = iota
	// ModeRTM is Intel's heavyweight Restricted Transactional Memory.
	ModeRTM
)

// Config describes the transactional capacity and timing model.
type Config struct {
	Mode Mode

	// Write-set capacity geometry (derived from the backing cache).
	WriteSets int
	WriteWays int
	// Read-set capacity geometry (RTM only; zero disables read tracking).
	ReadSets int
	ReadWays int

	LineSize int

	// BeginCycles models XBegin (the mfence the emulation platform uses).
	BeginCycles int64
	// CommitCycles models XEnd (flash-clear for ROT, drain for RTM).
	CommitCycles int64
	// ReadPenaltyNum/Den scale in-transaction read latency (RTM: 6/5).
	ReadPenaltyNum int64
	ReadPenaltyDen int64
	// HasSOF reports Sticky Overflow Flag support (ROT extension, §V-B).
	HasSOF bool
}

// ROTConfig is the paper's lightweight HTM: writes fit the 256KB 8-way L2,
// no read tracking, 5-cycle commit, SOF available.
func ROTConfig() Config {
	return Config{
		Mode:           ModeROT,
		WriteSets:      512, // 256KB / 64B / 8 ways
		WriteWays:      8,
		LineSize:       64,
		BeginCycles:    30,
		CommitCycles:   5,
		ReadPenaltyNum: 1,
		ReadPenaltyDen: 1,
		HasSOF:         true,
	}
}

// RTMConfig is Intel RTM: writes fit the 32KB 8-way L1D, reads fit the
// 256KB 8-way L2, 13-cycle commit, 20% read penalty, no SOF (paper §VI-B).
func RTMConfig() Config {
	return Config{
		Mode:           ModeRTM,
		WriteSets:      64, // 32KB / 64B / 8 ways
		WriteWays:      8,
		ReadSets:       512,
		ReadWays:       8,
		LineSize:       64,
		BeginCycles:    30,
		CommitCycles:   13,
		ReadPenaltyNum: 6,
		ReadPenaltyDen: 5,
		HasSOF:         false,
	}
}

// AbortCause classifies aborts (RTM exposes this via the abort code, which
// the runtime uses to pick a recovery strategy, paper §VI-B).
type AbortCause uint8

const (
	AbortCheck AbortCause = iota // converted SMP-guarding check failed
	AbortCapacity
	AbortSOF
	AbortIrrevocable // I/O or other irrevocable event
	// AbortConflict is a cross-context read/write-set conflict detected
	// through cache coherence (shared-heap mode only; a single-threaded
	// isolate can never see one). The ConflictError carried alongside the
	// abort attributes the kill to the opposing reader, writer, or the
	// software fallback lock.
	AbortConflict
)

// NumAbortCauses sizes per-cause ledgers. It is stats.NumAbortCauses (stats
// cannot import htm), and the index below fails to compile unless
// AbortConflict is the last cause.
const NumAbortCauses AbortCause = stats.NumAbortCauses

var _ = [1]struct{}{}[NumAbortCauses-1-AbortConflict]

// String names the cause.
func (c AbortCause) String() string {
	switch c {
	case AbortCheck:
		return "check"
	case AbortCapacity:
		return "capacity"
	case AbortSOF:
		return "sticky-overflow"
	case AbortIrrevocable:
		return "irrevocable"
	case AbortConflict:
		return "conflict"
	}
	return "?"
}

// ErrNoTransaction is returned for commit/abort without an open transaction.
var ErrNoTransaction = errors.New("htm: no open transaction")

// ErrIrrevocable is returned by the runtime when an irrevocable operation
// (I/O) is attempted inside a transaction; the machine aborts the
// transaction and the operation re-executes non-transactionally in the
// Baseline tier.
var ErrIrrevocable = errors.New("htm: irrevocable operation inside transaction")

// CapacityError signals that a transactional access overflowed the cache.
type CapacityError struct {
	Write bool
	Set   int
}

func (e *CapacityError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("htm: transactional %s footprint overflowed cache set %d", kind, e.Set)
}

// Txn is one open (possibly flat-nested) transaction.
type Txn struct {
	// Owner is an opaque token identifying the frame that opened the
	// outermost transaction of the nest; aborts unwind to it.
	Owner any
	// Recover is opaque recovery state (the machine stores the TxBegin's
	// stack map and value table here).
	Recover any

	depth      int
	writeLines map[uint64]struct{}
	writeSets  []uint8
	readLines  map[uint64]struct{}
	readSets   []uint8
	// conflictReads tracks loads for cross-context conflict detection when
	// the configuration has no read-set capacity (ROT): coherence still
	// observes invalidations even though no cache tags buffer the footprint.
	// Only populated while a Domain is attached.
	conflictReads map[uint64]struct{}
	// undo is the generic rollback log of RecordWrite callers that pass an
	// undo action. The engine passes none: the machine and the shared-section
	// workers keep typed logs of their own.
	undo []func()
	sof  bool
}

// Depth returns the flat-nesting depth (1 for an outermost-only nest).
func (t *Txn) Depth() int { return t.depth }

// WriteBytes returns the write footprint in bytes.
func (t *Txn) WriteBytes() int64 { return int64(len(t.writeLines)) * 64 }

// WriteLines returns the number of distinct cache lines in the write set —
// the footprint unit capacity aborts are measured in, and the quantity the
// one-word boxed value representation shrinks.
func (t *Txn) WriteLines() int { return len(t.writeLines) }

// ReadBytes returns the tracked read footprint in bytes.
func (t *Txn) ReadBytes() int64 { return int64(len(t.readLines)) * 64 }

// MaxWriteAssoc returns the maximum number of transactional write lines
// mapping to a single cache set (Table IV column 3).
func (t *Txn) MaxWriteAssoc() int {
	m := uint8(0)
	for _, n := range t.writeSets {
		if n > m {
			m = n
		}
	}
	return int(m)
}

// CapacityProbe is consulted once per newly tracked cache line. Returning
// true forces a capacity overflow for that access, as if the target set were
// already full — the deterministic-fault-injection oracle uses this to abort
// a transaction at an arbitrary point of its write (or read) footprint.
// Production runs install none; the only cost is one nil check per new line.
type CapacityProbe func(write bool, line uint64) bool

// System is the HTM state for one simulated hardware context.
type System struct {
	cfg Config
	txn *Txn
	// spare is the Txn retired by the last Commit or Abort, kept so the next
	// outermost Begin reuses its maps and set counters. It is reset there,
	// not on retire: callers read a transaction's footprint after Commit.
	spare         *Txn
	probe         CapacityProbe
	conflictProbe ConflictProbe

	// domain, when non-nil, joins this context to a cross-isolate conflict
	// domain under the given owner id (shared-heap mode).
	domain *Domain
	owner  int

	// ctrs is the ledger every finished transaction is counted into: its
	// owner's (see CountInto), or private counters nobody reads.
	ctrs *stats.Counters
}

// New creates an HTM system. It counts into private counters until its owner
// hands it a ledger with CountInto.
func New(cfg Config) *System { return &System{cfg: cfg, ctrs: new(stats.Counters)} }

// CountInto makes c the ledger of every later transaction: an outermost Begin
// counts TxBegins, an outermost Commit the commit and its footprint, and
// Abort the abort, its cause and its footprint. Commit and Abort also settle
// the transaction's cycles (RetireOpenTx, SquashOpenTx), so the owner charges
// in-transaction cycles to c before it commits. The owner calls it once.
func (s *System) CountInto(c *stats.Counters) { s.ctrs = c }

// Reset discards any open transaction, uncounted and without rollback. The
// capacity probe is kept, mirroring how the machine keeps its injector:
// instrumentation is the caller's to manage.
func (s *System) Reset() { s.retire() }

// Config returns the configuration.
func (s *System) Config() Config { return s.cfg }

// SetCapacityProbe installs (or clears, with nil) the capacity fault probe.
func (s *System) SetCapacityProbe(p CapacityProbe) { s.probe = p }

// InTx reports whether a transaction is open.
func (s *System) InTx() bool { return s.txn != nil }

// Current returns the open transaction, or nil.
func (s *System) Current() *Txn { return s.txn }

// Begin opens a transaction, or increments the nest depth when one is open
// (flattened nesting, paper §V-A). It returns true when this call opened the
// outermost transaction; only then are owner/recover recorded. XBegin clears
// the SOF (paper §V-B).
func (s *System) Begin(owner, recover any) bool {
	if s.txn != nil {
		s.txn.depth++
		return false
	}
	s.ctrs.TxBegins++
	t := s.spare
	if t == nil {
		t = &Txn{
			writeLines: make(map[uint64]struct{}, 64),
			writeSets:  make([]uint8, s.cfg.WriteSets),
		}
		if s.cfg.ReadSets > 0 {
			t.readLines = make(map[uint64]struct{}, 256)
			t.readSets = make([]uint8, s.cfg.ReadSets)
		}
	} else {
		s.spare = nil
		clear(t.writeLines)
		clear(t.writeSets)
		clear(t.readLines)
		clear(t.readSets)
		clear(t.conflictReads)
		clear(t.undo)
		t.undo = t.undo[:0]
		t.sof = false
	}
	t.Owner, t.Recover, t.depth = owner, recover, 1
	s.txn = t
	return true
}

// retire closes the open transaction, if any, and keeps it for reuse.
func (s *System) retire() {
	if s.txn != nil {
		s.spare, s.txn = s.txn, nil
	}
}

// RecordWrite tracks a transactional store covering [addr, addr+size) and,
// when undo is non-nil, registers it as the store's rollback action (a caller
// that logs the old state itself passes nil). A capacity overflow returns an
// error; the caller is expected to abort.
func (s *System) RecordWrite(addr uint64, size int, undo func()) error {
	t := s.txn
	if t == nil {
		return ErrNoTransaction
	}
	if undo != nil {
		t.undo = append(t.undo, undo)
	}
	first := addr / uint64(s.cfg.LineSize)
	last := (addr + uint64(size) - 1) / uint64(s.cfg.LineSize)
	for line := first; line <= last; line++ {
		if _, ok := t.writeLines[line]; ok {
			continue
		}
		set := int(line % uint64(s.cfg.WriteSets))
		if int(t.writeSets[set]) >= s.cfg.WriteWays {
			return &CapacityError{Write: true, Set: set}
		}
		if s.probe != nil && s.probe(true, line) {
			return &CapacityError{Write: true, Set: set}
		}
		if s.conflictProbe != nil && s.conflictProbe(true, line) {
			return &ConflictError{Write: true, Line: line, With: -1, Attr: AttrWriter}
		}
		if s.domain != nil {
			if ce := s.domain.acquire(s.owner, line, true); ce != nil {
				return ce
			}
		}
		t.writeLines[line] = struct{}{}
		t.writeSets[set]++
	}
	return nil
}

// RecordRead tracks a transactional load (RTM only; a no-op for ROT, whose
// hardware does not buffer the read footprint).
func (s *System) RecordRead(addr uint64, size int) error {
	t := s.txn
	if t == nil {
		return ErrNoTransaction
	}
	if t.readLines == nil {
		// No read-set capacity (ROT). Reads still participate in
		// cross-context conflict detection while a domain is attached:
		// coherence observes invalidations regardless of cache tagging.
		if s.domain == nil && s.conflictProbe == nil {
			return nil
		}
		first := addr / uint64(s.cfg.LineSize)
		last := (addr + uint64(size) - 1) / uint64(s.cfg.LineSize)
		for line := first; line <= last; line++ {
			if _, ok := t.conflictReads[line]; ok {
				continue
			}
			if _, ok := t.writeLines[line]; ok {
				continue
			}
			if s.conflictProbe != nil && s.conflictProbe(false, line) {
				return &ConflictError{Write: false, Line: line, With: -1, Attr: AttrWriter}
			}
			if s.domain != nil {
				if ce := s.domain.acquire(s.owner, line, false); ce != nil {
					return ce
				}
			}
			if t.conflictReads == nil {
				t.conflictReads = make(map[uint64]struct{}, 8)
			}
			t.conflictReads[line] = struct{}{}
		}
		return nil
	}
	first := addr / uint64(s.cfg.LineSize)
	last := (addr + uint64(size) - 1) / uint64(s.cfg.LineSize)
	for line := first; line <= last; line++ {
		if _, ok := t.readLines[line]; ok {
			continue
		}
		// Writes occupy L2 too under RTM; approximate by counting both.
		set := int(line % uint64(s.cfg.ReadSets))
		if int(t.readSets[set]) >= s.cfg.ReadWays {
			return &CapacityError{Write: false, Set: set}
		}
		if s.probe != nil && s.probe(false, line) {
			return &CapacityError{Write: false, Set: set}
		}
		if s.conflictProbe != nil && s.conflictProbe(false, line) {
			return &ConflictError{Write: false, Line: line, With: -1, Attr: AttrWriter}
		}
		if s.domain != nil {
			if ce := s.domain.acquire(s.owner, line, false); ce != nil {
				return ce
			}
		}
		t.readLines[line] = struct{}{}
		t.readSets[set]++
	}
	return nil
}

// SetSOF records a sticky overflow (arithmetic overflowed inside the
// transaction with its overflow check elided).
func (s *System) SetSOF() {
	if s.txn != nil {
		s.txn.sof = true
	}
}

// SOF reports the sticky overflow flag.
func (s *System) SOF() bool { return s.txn != nil && s.txn.sof }

// Commit closes one nesting level. Only the outermost commit retires the
// transaction; XEnd aborts instead if the SOF is set (paper §V-B) — the
// caller must check SOF first. Returns whether the outermost level
// committed.
func (s *System) Commit() (bool, error) {
	t := s.txn
	if t == nil {
		return false, ErrNoTransaction
	}
	t.depth--
	if t.depth > 0 {
		return false, nil
	}
	s.ctrs.TxCommits++
	s.ctrs.TxWriteBytesTotal += t.WriteBytes()
	s.noteFootprint(t)
	s.ctrs.RetireOpenTx()
	if s.domain != nil {
		s.domain.release(s.owner, t)
	}
	s.retire()
	return true, nil
}

// Abort rolls back the whole nest: registered undo actions run in reverse
// order, the abort is counted under its cause, and the transaction is
// discarded.
func (s *System) Abort(cause AbortCause) error {
	t := s.txn
	if t == nil {
		return ErrNoTransaction
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	c := s.ctrs
	c.TxAborts++
	switch cause {
	case AbortCheck:
		c.TxCheckAborts++
	case AbortCapacity:
		c.TxCapacityAborts++
	case AbortSOF:
		c.TxSOFAborts++
	case AbortIrrevocable:
		c.TxIrrevocableAborts++
	case AbortConflict:
		c.TxConflictAborts++
	}
	s.noteFootprint(t)
	c.SquashOpenTx(int(cause))
	if s.domain != nil {
		s.domain.release(s.owner, t)
	}
	s.retire()
	return nil
}

// noteFootprint counts a finished transaction's footprint: the Table IV
// maxima and its distinct write lines, whether it committed or aborted.
func (s *System) noteFootprint(t *Txn) {
	c := s.ctrs
	c.TxWriteBytesMax = max(c.TxWriteBytesMax, t.WriteBytes())
	c.TxReadBytesMax = max(c.TxReadBytesMax, t.ReadBytes())
	c.TxMaxAssoc = max(c.TxMaxAssoc, int64(t.MaxWriteAssoc()))
	c.TxWriteLinesTotal += int64(t.WriteLines())
}
