package machine

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"nomap/internal/governor"
	"nomap/internal/htm"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// Shared-section executor: the shared-heap scenario class runs several
// workers against one value.SharedHeap, each worker executing a script of
// atomic sections. On the fast path a section is one hardware transaction in
// the worker's own htm.System, joined to the group's conflict Domain; on the
// slow path the section runs under the domain's software fallback lock with
// hardware-lock-elision semantics (acquiring the lock kills every open
// remote transaction, exactly as the lock-word write would through cache
// coherence). The contention governor arbitrates between the two after every
// abort: conflict blame retries behind a randomized-by-seed backoff window,
// capacity blame retreats to the fallback immediately, and conflict storms
// demote the section site until a clean fallback window re-promotes it.
//
// Execution advances in steps. One step is one scheduling yield point —
// transaction begin, a single shared access, commit, a backoff window, a
// fallback acquire/release — and every step runs under the domain's step
// lock. The deterministic schedule-sweep oracle and the real-goroutine pool
// mode drive the identical step machine; the only difference is who decides
// which worker steps next (a seeded scheduler vs. the Go runtime).

// SharedOpKind enumerates shared-section operations.
type SharedOpKind uint8

const (
	// OpAdd is a counter read-modify-write: ctr += Imm. Implemented as an
	// in-transaction load and store so a broken conflict detector produces
	// observable lost updates.
	OpAdd SharedOpKind = iota
	// OpReadCtr accumulates a counter into the worker's private accumulator.
	OpReadCtr
	// OpMapAdd is a striped-map read-modify-write: m[key] += Imm. Keys on
	// the same stripe share a cache line (the contention knob).
	OpMapAdd
	// OpMapRead accumulates m[key] into the accumulator.
	OpMapRead
	// OpPush appends Imm+round to a queue; a full queue is a failed
	// speculative guard and retries the section.
	OpPush
	// OpPop removes the oldest queue value into the accumulator; an empty
	// queue is a failed speculative guard and retries the section.
	OpPop
	// OpPublish folds the private accumulator into a counter (ctr += acc;
	// acc = 0), making otherwise-private work visible to the oracle's final
	// state.
	OpPublish
)

// SharedOp is one operation of an atomic section.
type SharedOp struct {
	Kind   SharedOpKind
	Target string // declared heap structure name
	Key    string // map key (OpMapAdd / OpMapRead)
	Imm    int64
	// Rotate varies the effective map key per round (Key + round%8), turning
	// a hot-key workload into a striped one.
	Rotate bool
}

// SharedSection is one atomic section: all ops commit or none do.
type SharedSection []SharedOp

// SharedScript is one worker's program: its sections, executed in order,
// repeated Rounds times (once when zero).
type SharedScript struct {
	Sections []SharedSection
	Rounds   int
}

// SharedDeclKind enumerates shared-heap declarations.
type SharedDeclKind uint8

const (
	DeclCounter SharedDeclKind = iota
	DeclMap                    // Arg = stripe count
	DeclQueue                  // Arg = capacity
)

// SharedDecl declares one shared structure.
type SharedDecl struct {
	Kind SharedDeclKind
	Name string
	Arg  int
}

// SharedWorkload is a complete shared-heap scenario: the heap layout plus
// one script per worker.
//
// Determinism contract: scripts must be final-state commutative — the heap
// snapshot (and, for single-consumer queues, the per-worker accumulators)
// after all workers finish must not depend on the interleaving. Counter and
// map updates are commutative additions; queue pops block (retry) on empty,
// so totals are schedule-independent. The single-threaded reference executes
// workers in index order, so a consumer may only pop values a lower-indexed
// worker (or its own earlier ops) pushed, and queue capacities must hold the
// full production.
type SharedWorkload struct {
	Name    string
	Decls   []SharedDecl
	Workers []SharedScript
}

// BuildHeap materializes the workload's declarations into a fresh heap.
func (wl *SharedWorkload) BuildHeap() *value.SharedHeap {
	h := value.NewSharedHeap()
	for _, d := range wl.Decls {
		switch d.Kind {
		case DeclCounter:
			h.DeclareCounter(d.Name)
		case DeclMap:
			h.DeclareMap(d.Name, d.Arg)
		case DeclQueue:
			h.DeclareQueue(d.Name, d.Arg)
		}
	}
	return h
}

// Step costs in cycles. Shared ops are simple field accesses (~10 simulated
// cycles); the fallback acquire models an uncontended CAS plus the fence, and
// guard/lock waits model a brief spin before re-polling.
const (
	sharedOpCycles  = 10
	fbAcquireCycles = 40
	fbReleaseCycles = 5
	lockWaitCycles  = 15
	guardWaitCycles = 20
)

// errGuardRetry signals a failed speculative guard (empty pop, full push):
// the section rolls back and retries after a short wait, like a failed
// converted check re-executing its loop.
var errGuardRetry = errors.New("shared section guard failed")

// wState is the worker step machine's state.
type wState uint8

const (
	wsSectionStart wState = iota
	wsTxOp
	wsTxCommit
	wsBackoff
	wsGuardWait
	wsFallbackAcquire
	wsFallbackOp
	wsFallbackRelease
	wsDone
)

// SharedOptions configures a shared run.
type SharedOptions struct {
	// Tracer receives machine events from every worker (Fn is tagged
	// "workload:wN").
	Tracer Tracer
	// Configure, when non-nil, is called once per worker after its HTM
	// system attaches to the domain — the oracle installs capacity and
	// conflict probes here.
	Configure func(id int, sys *htm.System)
}

// maxSteps bounds a scheduled or concurrent run as a livelock backstop.
const maxSteps = 2_000_000

// SharedRun is an instantiated shared-heap execution: the heap, the conflict
// domain, the contention governor, and one worker per script.
type SharedRun struct {
	Name    string
	Arch    vm.Arch
	Heap    *value.SharedHeap
	Dom     *htm.Domain
	Gov     *governor.Contention
	Workers []*SharedWorker

	trace Tracer
}

// SharedWorker is one worker's step machine. All fields are guarded by the
// run's domain step lock: every Step executes under it, and the fallback
// acquirer mutates remote workers (killing their transactions) under it too.
type SharedWorker struct {
	run *SharedRun
	// ID is the worker index and its owner id in the conflict domain.
	ID  int
	sys *htm.System
	// Ctrs is the worker's private counter set; merge after quiescence.
	Ctrs stats.Counters
	// Acc is the worker-private accumulator OpReadCtr/OpPop feed and
	// OpPublish drains.
	Acc int64

	script  SharedScript
	state   wState
	round   int
	section int
	op      int

	// label tags the worker's events ("workload:wN"); sites holds the
	// contention governor's key for each section of the script.
	label string
	sites []string

	accStart int64
	// log is the rollback log of the section execution in progress, on
	// either path; it is empty between sections.
	log            sectionLog
	forceFB        bool // this section execution retreated to the fallback
	pendingBackoff int64
}

// NewSharedRun validates the workload and instantiates its execution state.
func NewSharedRun(wl *SharedWorkload, arch vm.Arch, seed int64, opt SharedOptions) (*SharedRun, error) {
	if len(wl.Workers) == 0 {
		return nil, fmt.Errorf("shared workload %q has no workers", wl.Name)
	}
	heap := wl.BuildHeap()
	if err := validateWorkload(wl, heap); err != nil {
		return nil, err
	}
	r := &SharedRun{
		Name:  wl.Name,
		Arch:  arch,
		Heap:  heap,
		Dom:   htm.NewDomain(),
		Gov:   governor.NewContention(governor.DefaultContentionPolicy(seed)),
		trace: opt.Tracer,
	}
	cfg := htm.ROTConfig()
	if arch.HeavyweightHTM() {
		cfg = htm.RTMConfig()
	}
	for i, script := range wl.Workers {
		w := &SharedWorker{run: r, ID: i, sys: htm.New(cfg), script: script,
			label: fmt.Sprintf("%s:w%d", wl.Name, i)}
		if w.script.Rounds <= 0 {
			w.script.Rounds = 1
		}
		// A site key is per worker: the attempt ledger counts one
		// execution's consecutive conflicts, which another worker's commits
		// must not reset.
		for s := range script.Sections {
			w.sites = append(w.sites, fmt.Sprintf("%s#s%d:w%d", wl.Name, s, i))
		}
		w.sys.CountInto(&w.Ctrs)
		w.sys.AttachDomain(r.Dom, i)
		if opt.Configure != nil {
			opt.Configure(i, w.sys)
		}
		r.Workers = append(r.Workers, w)
	}
	return r, nil
}

func validateWorkload(wl *SharedWorkload, heap *value.SharedHeap) error {
	for wi, script := range wl.Workers {
		for si, sec := range script.Sections {
			for oi, op := range sec {
				var ok bool
				switch op.Kind {
				case OpAdd, OpReadCtr, OpPublish:
					ok = heap.Counter(op.Target) != nil
				case OpMapAdd, OpMapRead:
					ok = heap.Map(op.Target) != nil
				case OpPush, OpPop:
					ok = heap.Queue(op.Target) != nil
				default:
					return fmt.Errorf("%s: worker %d section %d op %d: unknown kind %d",
						wl.Name, wi, si, oi, op.Kind)
				}
				if !ok {
					return fmt.Errorf("%s: worker %d section %d op %d: target %q is not declared with the required kind",
						wl.Name, wi, si, oi, op.Target)
				}
			}
		}
	}
	return nil
}

// Sys exposes the worker's HTM system (probe installation, tests).
func (w *SharedWorker) Sys() *htm.System { return w.sys }

// Done reports whether the worker's script has completed.
func (w *SharedWorker) Done() bool { return w.state == wsDone }

// site identifies the worker's current section to the contention governor.
func (w *SharedWorker) site() string { return w.sites[w.section] }

// opKey resolves a map op's effective key for the current round.
func opKey(op SharedOp, round int) string {
	if op.Rotate {
		return op.Key + strconv.Itoa(round&7)
	}
	return op.Key
}

// inTxOpCycles is the in-transaction cost of one shared op; RTM's tracked
// reads slow every access of these read-modify-write ops.
func (w *SharedWorker) inTxOpCycles() int64 {
	cfg := w.sys.Config()
	return sharedOpCycles * cfg.ReadPenaltyNum / cfg.ReadPenaltyDen
}

// StepLocked advances the worker by one yield point under the domain's step
// lock. It reports whether the worker still has work.
func (r *SharedRun) StepLocked(w *SharedWorker) (bool, error) {
	r.Dom.Lock()
	defer r.Dom.Unlock()
	return w.step()
}

func (w *SharedWorker) step() (bool, error) {
	switch w.state {
	case wsDone:
		return false, nil
	case wsSectionStart:
		w.stepSectionStart()
	case wsTxOp:
		if err := w.stepTxOp(); err != nil {
			return false, err
		}
	case wsTxCommit:
		w.stepTxCommit()
	case wsBackoff:
		// Serve the randomized contention window, then re-attempt.
		w.Ctrs.AddCycles(w.pendingBackoff, false)
		w.run.trace.Emit(Event{Kind: EventBackoff, Fn: w.label, N: w.pendingBackoff})
		w.Ctrs.SharedBackoffs++
		w.Ctrs.SharedTxRetries++
		w.pendingBackoff = 0
		w.state = wsSectionStart
	case wsGuardWait:
		// A speculative guard (empty pop / full push) failed: wait for
		// another worker to change the queue, then retry the section.
		w.Ctrs.AddCycles(guardWaitCycles, false)
		w.state = wsSectionStart
	case wsFallbackAcquire:
		w.stepFallbackAcquire()
	case wsFallbackOp:
		if err := w.stepFallbackOp(); err != nil {
			return false, err
		}
	case wsFallbackRelease:
		w.stepFallbackRelease()
	}
	return w.state != wsDone, nil
}

func (w *SharedWorker) stepSectionStart() {
	if w.forceFB || !w.run.Arch.UsesTransactions() || w.run.Gov.Demoted(w.site()) {
		w.state = wsFallbackAcquire
		w.stepFallbackAcquire()
		return
	}
	if w.run.Dom.FallbackHeld() {
		// Test before elision: starting a transaction under a held lock
		// would abort at the first access anyway.
		w.Ctrs.AddCycles(lockWaitCycles, false)
		return
	}
	w.sys.Begin(nil, nil)
	w.Ctrs.AddCycles(w.sys.Config().BeginCycles, true)
	w.accStart = w.Acc
	w.op = 0
	w.run.trace.Emit(Event{Kind: EventTxBegin, Fn: w.label})
	w.state = wsTxOp
}

func (w *SharedWorker) stepTxOp() error {
	sec := w.script.Sections[w.section]
	err := applySharedOp(w.run.Heap, sec[w.op], w.round, &w.Acc, w.sys, &w.log)
	switch e := err.(type) {
	case nil:
		w.Ctrs.SharedOps++
		w.Ctrs.AddCycles(w.inTxOpCycles(), true)
		w.op++
		if w.op == len(sec) {
			w.state = wsTxCommit
		}
		return nil
	case *htm.ConflictError:
		w.onConflict(e)
		return nil
	case *htm.CapacityError:
		w.onCapacity()
		return nil
	default:
		if errors.Is(err, errGuardRetry) {
			w.abortTx(htm.AbortCheck, htm.AttrNone)
			w.state = wsGuardWait
			return nil
		}
		return err
	}
}

func (w *SharedWorker) stepTxCommit() {
	if w.run.Dom.FallbackHeld() {
		// Lock-elision subscription: the commit observes the fallback lock
		// word held and the transaction dies.
		w.onConflict(&htm.ConflictError{With: -1, Attr: htm.AttrLock})
		return
	}
	wb := w.sys.Current().WriteBytes()
	// Charged before the commit, which retires them with the transaction.
	w.Ctrs.AddCycles(w.sys.Config().CommitCycles, true)
	w.sys.Commit()
	w.log.reset()
	w.run.trace.Emit(Event{Kind: EventTxCommit, Fn: w.label, WriteBytes: wb})
	w.run.Gov.OnCommit(w.site(), false)
	w.sectionDone()
}

// abortTx rolls the open transaction back: the section log restores the
// heap, the accumulator returns to its section-start value, and the HTM
// system discards (and counts) the transaction.
func (w *SharedWorker) abortTx(cause htm.AbortCause, attr htm.Attribution) {
	wb := w.sys.Current().WriteBytes()
	w.log.rollback()
	w.sys.Abort(cause)
	w.Acc = w.accStart
	w.run.trace.Emit(Event{Kind: EventTxAbort, Fn: w.label, Cause: cause, Attr: attr, WriteBytes: wb})
}

// onConflict aborts the open transaction with conflict blame and asks the
// governor whether to back off and retry or retreat to the fallback.
func (w *SharedWorker) onConflict(ce *htm.ConflictError) {
	w.abortTx(htm.AbortConflict, ce.Attr)
	dec := w.run.Gov.OnConflict(w.site())
	if dec.Fallback {
		w.forceFB = true
		w.state = wsFallbackAcquire
		return
	}
	w.pendingBackoff = dec.BackoffCycles
	w.state = wsBackoff
}

// onCapacity aborts with capacity blame: the footprint is the section's own,
// so the execution retreats to the fallback immediately (no backoff — a
// deterministic overflow cannot be waited out).
func (w *SharedWorker) onCapacity() {
	w.abortTx(htm.AbortCapacity, htm.AttrNone)
	w.run.Gov.OnCapacity(w.site())
	w.forceFB = true
	w.state = wsFallbackAcquire
}

func (w *SharedWorker) stepFallbackAcquire() {
	if !w.run.Dom.AcquireFallback(w.ID) {
		w.Ctrs.AddCycles(lockWaitCycles, false)
		return
	}
	w.Ctrs.SharedFallbackAcquires++
	w.Ctrs.AddCycles(fbAcquireCycles, false)
	w.accStart = w.Acc
	w.op = 0
	w.run.trace.Emit(Event{Kind: EventFallbackAcquire, Fn: w.label})
	// Writing the lock word invalidates it in every subscribed transaction:
	// all open remote speculation dies before the fallback touches data, so
	// the fallback path never reads dirty speculative state.
	for _, o := range w.run.Workers {
		if o != w && o.sys.InTx() {
			o.onConflict(&htm.ConflictError{With: w.ID, Attr: htm.AttrLock})
		}
	}
	w.state = wsFallbackOp
}

func (w *SharedWorker) stepFallbackOp() error {
	sec := w.script.Sections[w.section]
	err := applySharedOp(w.run.Heap, sec[w.op], w.round, &w.Acc, nil, &w.log)
	if err != nil {
		if !errors.Is(err, errGuardRetry) {
			return err
		}
		// Roll the section's direct mutations back, drop the lock so the
		// worker that can satisfy the guard may run, and retry later.
		w.log.rollback()
		w.Acc = w.accStart
		w.run.Dom.ReleaseFallback(w.ID)
		w.run.trace.Emit(Event{Kind: EventFallbackRelease, Fn: w.label})
		w.state = wsGuardWait
		return nil
	}
	w.Ctrs.SharedOps++
	w.Ctrs.AddCycles(sharedOpCycles, false)
	w.op++
	if w.op == len(sec) {
		w.state = wsFallbackRelease
	}
	return nil
}

func (w *SharedWorker) stepFallbackRelease() {
	w.run.Dom.ReleaseFallback(w.ID)
	w.Ctrs.AddCycles(fbReleaseCycles, false)
	w.log.reset()
	w.run.trace.Emit(Event{Kind: EventFallbackRelease, Fn: w.label})
	if w.run.Arch.UsesTransactions() {
		if w.run.Gov.OnCommit(w.site(), true) {
			w.Ctrs.SharedRepromotions++
			w.run.trace.Emit(Event{Kind: EventRepromote, Fn: w.label})
		}
	}
	w.forceFB = false
	w.sectionDone()
}

func (w *SharedWorker) sectionDone() {
	w.section++
	if w.section == len(w.script.Sections) {
		w.section = 0
		w.round++
	}
	if w.round >= w.script.Rounds {
		w.state = wsDone
		return
	}
	w.state = wsSectionStart
}

// sharedUndoKind names what a sharedUndo restores: one kind per shared word
// an op overwrites. A push's ring slot gets no record: it lies past the
// restored tail, and nothing reads it before the next push overwrites it.
type sharedUndoKind uint8

const (
	undoCounter   sharedUndoKind = iota // ctr held old
	undoMapKey                          // m[key] held old
	undoQueueHead                       // q's head index was old
	undoQueueTail                       // q's tail index was old
)

// sharedUndo is one record of a section log: the shared word an op
// overwrote, kept by value.
type sharedUndo struct {
	kind sharedUndoKind
	ctr  *value.SharedCounter
	m    *value.SharedMap
	q    *value.SharedQueue
	key  string
	old  int64
}

// sectionLog is a worker's typed rollback log for one section execution. It
// serves both paths: an abort (including a lock-elision kill) and a fallback
// guard retry replay it, a commit or a fallback release empties it.
type sectionLog []sharedUndo

// rollback replays the log newest-first, restoring the shared heap to its
// state at the section start, and empties it.
func (l *sectionLog) rollback() {
	for i := len(*l) - 1; i >= 0; i-- {
		r := &(*l)[i]
		switch r.kind {
		case undoCounter:
			r.ctr.Value = r.old
		case undoMapKey:
			r.m.Set(r.key, r.old)
		case undoQueueHead:
			r.q.SetHead(int(r.old))
		case undoQueueTail:
			r.q.SetTail(int(r.old))
		}
	}
	l.reset()
}

// reset empties the log, clearing its heap references.
func (l *sectionLog) reset() {
	clear(*l)
	*l = (*l)[:0]
}

// applySharedOp is the one semantics of a shared op, run by the
// transactional path, the fallback path and the single-threaded reference
// alike, so any divergence between them is the transaction machinery's
// fault. With sys non-nil every line the op touches is tracked in the
// worker's HTM system — and so in the conflict domain — before the heap
// changes; a rejected access returns its error with this op's mutation not
// yet made. With log non-nil every overwritten shared word is logged.
func applySharedOp(heap *value.SharedHeap, op SharedOp, round int, acc *int64, sys *htm.System, log *sectionLog) error {
	track := func(addr uint64, write bool) error {
		switch {
		case sys == nil:
			return nil
		case write:
			return sys.RecordWrite(addr, 8, nil)
		}
		return sys.RecordRead(addr, 8)
	}
	record := func(r sharedUndo) {
		if log != nil {
			*log = append(*log, r)
		}
	}
	switch op.Kind {
	case OpAdd, OpPublish:
		c := heap.Counter(op.Target)
		if err := track(c.Addr(), false); err != nil {
			return err
		}
		if err := track(c.Addr(), true); err != nil {
			return err
		}
		record(sharedUndo{kind: undoCounter, ctr: c, old: c.Value})
		if op.Kind == OpAdd {
			c.Value += op.Imm
		} else {
			c.Value += *acc
			*acc = 0
		}
	case OpReadCtr:
		c := heap.Counter(op.Target)
		if err := track(c.Addr(), false); err != nil {
			return err
		}
		*acc += c.Value
	case OpMapAdd, OpMapRead:
		m := heap.Map(op.Target)
		k := opKey(op, round)
		addr := m.StripeAddr(m.StripeFor(k))
		if err := track(addr, false); err != nil {
			return err
		}
		old := m.Get(k)
		if op.Kind == OpMapRead {
			*acc += old
			break
		}
		if err := track(addr, true); err != nil {
			return err
		}
		record(sharedUndo{kind: undoMapKey, m: m, key: k, old: old})
		m.Set(k, old+op.Imm)
	case OpPush:
		q := heap.Queue(op.Target)
		if err := track(q.HeadAddr(), false); err != nil {
			return err
		}
		if err := track(q.TailAddr(), false); err != nil {
			return err
		}
		if q.Len() >= q.Cap {
			return errGuardRetry
		}
		tail := q.Tail()
		if err := track(q.TailAddr(), true); err != nil {
			return err
		}
		record(sharedUndo{kind: undoQueueTail, q: q, old: int64(tail)})
		if err := track(q.SlotAddr(tail), true); err != nil {
			return err
		}
		q.Push(op.Imm + int64(round))
	case OpPop:
		q := heap.Queue(op.Target)
		if err := track(q.HeadAddr(), false); err != nil {
			return err
		}
		if err := track(q.TailAddr(), false); err != nil {
			return err
		}
		if q.Len() == 0 {
			return errGuardRetry
		}
		head := q.Head()
		if err := track(q.SlotAddr(head), false); err != nil {
			return err
		}
		if err := track(q.HeadAddr(), true); err != nil {
			return err
		}
		record(sharedUndo{kind: undoQueueHead, q: q, old: int64(head)})
		v, _ := q.Pop()
		*acc += v
	}
	return nil
}

// SharedResult is the observable outcome of a shared run: the canonical heap
// snapshot, the per-worker accumulators, and the counters.
type SharedResult struct {
	Snapshot  string
	Accs      []int64
	PerWorker []stats.Counters
	Merged    stats.Counters
	Sites     []governor.ContentionSiteReport
	Steps     int64
}

func (r *SharedRun) result(steps int64) *SharedResult {
	res := &SharedResult{
		Snapshot: r.Heap.Snapshot(),
		Steps:    steps,
		Sites:    r.Gov.Report(),
	}
	parts := make([]*stats.Counters, 0, len(r.Workers))
	for _, w := range r.Workers {
		res.Accs = append(res.Accs, w.Acc)
		res.PerWorker = append(res.PerWorker, w.Ctrs)
		parts = append(parts, &w.Ctrs)
	}
	res.Merged = stats.Merge(parts...)
	return res
}

// RunScheduled executes the workload under a deterministic seeded scheduler:
// one goroutine, one worker step per tick, the seed fully determining the
// interleaving. Two calls with equal (workload, arch, seed, options) produce
// identical results, events included.
func RunScheduled(wl *SharedWorkload, arch vm.Arch, seed int64, opt SharedOptions) (*SharedResult, error) {
	r, err := NewSharedRun(wl, arch, seed, opt)
	if err != nil {
		return nil, err
	}
	live := make([]*SharedWorker, len(r.Workers))
	copy(live, r.Workers)
	rng := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	var steps int64
	for len(live) > 0 {
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("%s/%v: no progress after %d scheduled steps (livelocked script?)",
				wl.Name, arch, maxSteps)
		}
		rng = governor.XorShift64(rng)
		i := int(rng % uint64(len(live)))
		more, err := r.StepLocked(live[i])
		if err != nil {
			return nil, err
		}
		if !more {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return r.result(steps), nil
}

// RunConcurrent executes the workload on one real goroutine per worker. The
// goroutines drive the identical step machine as RunScheduled — every step
// under the domain's step lock — so the Go scheduler merely picks the
// interleaving the seeded scheduler would otherwise dictate. The result is
// schedule-dependent in its counters but, by the workload determinism
// contract, not in its final heap state. The run is -race clean: all shared
// executor state is guarded by the domain lock.
func RunConcurrent(wl *SharedWorkload, arch vm.Arch, seed int64, opt SharedOptions) (*SharedResult, error) {
	r, err := NewSharedRun(wl, arch, seed, opt)
	if err != nil {
		return nil, err
	}
	var (
		wg       sync.WaitGroup
		total    atomic.Int64
		firstErr atomic.Value
	)
	for _, w := range r.Workers {
		wg.Add(1)
		go func(w *SharedWorker) {
			defer wg.Done()
			var steps int64
			for {
				steps++
				if steps > maxSteps {
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s/%v: worker %d made no progress after %d steps",
						wl.Name, arch, w.ID, maxSteps))
					return
				}
				more, err := r.StepLocked(w)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if !more {
					total.Add(steps)
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return nil, err
	}
	return r.result(total.Load()), nil
}

// RunReference executes the workload single-threaded: workers in index
// order, sections applied directly with no transactions, no locks, and no
// retries. This is the oracle's ground truth — a guard that fails here is a
// script bug (see the SharedWorkload determinism contract), not a scheduling
// artifact, so it is an error rather than a wait.
func RunReference(wl *SharedWorkload) (*SharedResult, error) {
	heap := wl.BuildHeap()
	if err := validateWorkload(wl, heap); err != nil {
		return nil, err
	}
	res := &SharedResult{Accs: make([]int64, len(wl.Workers))}
	for wi, script := range wl.Workers {
		rounds := script.Rounds
		if rounds <= 0 {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			for si, sec := range script.Sections {
				for _, op := range sec {
					if err := applySharedOp(heap, op, round, &res.Accs[wi], nil, nil); err != nil {
						return nil, fmt.Errorf("%s: reference stuck at worker %d section %d round %d: %v",
							wl.Name, wi, si, round, err)
					}
				}
			}
		}
	}
	res.Snapshot = heap.Snapshot()
	res.PerWorker = make([]stats.Counters, len(wl.Workers))
	return res, nil
}
