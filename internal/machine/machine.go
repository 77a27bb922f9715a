// Package machine executes speculative-tier IR on a modeled microarchitecture:
// per-op dynamic x86-64 instruction weights, a simulated cache hierarchy, and
// a hardware-transactional-memory system (lightweight ROT or Intel RTM).
//
// It implements the two control transfers at the heart of the paper:
//
//   - Deoptimization: a failed check with a Stack Map Point materializes the
//     Baseline register file from the stack map and returns a Deopt for the
//     JIT driver to resume in the Baseline tier (paper §II-B).
//
//   - Transactional abort: a failed check inside a transaction (its SMP
//     removed by NoMap) rolls back the transaction's write set via the undo
//     log and transfers to the Baseline entry recorded at the transaction
//     begin (paper Figure 5, Entry₃). Aborts unwind through nested frames to
//     the owner of the outermost transaction (flattened nesting, §V-A).
package machine

import (
	"fmt"
	"math"
	"slices"

	"nomap/internal/bytecode"
	"nomap/internal/cache"
	"nomap/internal/core"
	"nomap/internal/frame"
	"nomap/internal/htm"
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Host is the engine facade the machine calls back into.
type Host interface {
	Shapes() *value.ShapeTable
	Globals() *value.Object
	// Handles is the isolate's handle slab: machine operand slots are
	// NaN-boxed words, and string/object operands reference the heap
	// through it.
	Handles() *value.Handles
	Call(fn *value.Function, this value.Value, args []value.Value) (value.Value, error)
	Construct(fn *value.Function, args []value.Value) (value.Value, error)
	InvokeMethod(recv value.Value, name string, args []value.Value) (value.Value, error)
	// Counters returns the engine's ledger. It must return the same pointer
	// for the host's lifetime: New hands it to the HTM system once, and every
	// transaction is counted into it from then on.
	Counters() *stats.Counters
	// ProfileFor returns the profile of a bytecode function; the machine
	// folds its locally counted loop back edges into it on clean returns so
	// loop-trip profiling stays consistent across tiers.
	ProfileFor(fn *bytecode.Function) *profile.FunctionProfile
}

// Machine is the execution engine for one VM.
type Machine struct {
	host  Host
	Mem   *Memory
	Cache *cache.Hierarchy
	HTM   *htm.System

	hook   *txHook
	trace  Tracer
	inject Injector
	// undo is the heap's typed undo log for the open transaction (hook.go).
	undo []undoRec
	// frames holds one scratch buffer per runFrom nesting depth; depth is the
	// number of activations currently on the host stack. Compiled code
	// re-enters Run/EnterAt through host.Call, so a buffer belongs to a depth,
	// never to the machine as a whole.
	frames          []*frameBuf
	depth           int
	pendingCapacity bool
	// txHadCalls tracks whether user code was invoked inside the currently
	// open outermost transaction (reset at every outermost begin and tile
	// re-begin). It feeds Deopt.HadCalls: §V-C blames the callee for a
	// capacity overflow only when a callee actually ran in the squashed
	// transaction, not merely when the function body contains a call — OSR
	// entry routinely compiles functions whose out-of-loop head still holds
	// unprofiled generic calls that never execute transactionally.
	txHadCalls bool
	// icSeen bounds IC trace noise: EventICHit / EventICTransition fire once
	// per dispatch site and shape per machine reset, keyed by the event
	// itself. Allocated lazily, only while a tracer is installed.
	icSeen map[Event]bool
	// siteKeys memoizes injection-site keys per IR value (inject.go).
	// Allocated lazily, only while an injector is installed.
	siteKeys map[*ir.Value]SiteKey
}

// New creates a machine with the given HTM flavour.
func New(host Host, htmCfg htm.Config) *Machine {
	m := &Machine{
		host:  host,
		Mem:   NewMemory(),
		Cache: cache.NewHierarchy(),
		HTM:   htm.New(htmCfg),
	}
	m.HTM.CountInto(host.Counters())
	m.hook = &txHook{m: m}
	return m
}

// ResetState returns the machine's simulated hardware to its initial
// condition: a fresh address map, cold caches (emptied in place), and cleared
// HTM state — an open transaction is dropped without rollback, its write hook
// uninstalled. The jit backend's Reset calls it so differential runs on a
// reused engine see the same address stream and cache behaviour as a fresh
// one.
func (m *Machine) ResetState() {
	m.Mem = NewMemory()
	m.Cache.Reset()
	m.HTM.Reset()
	m.uninstallHook()
	m.dropUndo()
	m.depth = 0
	for _, fb := range m.frames {
		clear(fb.args[:cap(fb.args)]) // the old heap's values
		for _, fr := range fb.rec {
			*fr = frame.Frame{Locals: fr.Locals[:0]} // the old heap's environments
		}
	}
	m.pendingCapacity = false
	m.txHadCalls = false
	m.icSeen = nil
	m.siteKeys = nil
}

// InTx reports whether a hardware transaction is open.
func (m *Machine) InTx() bool { return m.HTM.InTx() }

// Deopt describes a transfer to the Baseline tier.
type Deopt struct {
	// Frame is the materialized activation record Baseline resumes: the
	// stack map's register file (or the transaction's recovery entry)
	// positioned at the resume pc, carrying the frame's unflushed back-edge
	// delta.
	Frame *frame.Frame
	// Aborted is set when the transfer came from a transaction abort
	// rather than a plain OSR exit.
	Aborted bool
	Cause   htm.AbortCause
	// HadCalls reports whether user code was actually invoked inside the
	// aborted transaction (used by the §V-C policy: transactions whose
	// overflow may be a callee's footprint are removed rather than tiled).
	HadCalls bool
	// Site is the IR site that triggered the transfer: the failing check
	// (with its class), the overflowing write, or the call whose callee was
	// irrevocable. The abort-recovery governor keys its ledgers by it.
	Site core.Site
}

// txUnwind propagates a transaction abort out of nested frames until it
// reaches the frame that owns the outermost transaction.
type txUnwind struct {
	owner *frameBuf
	rec   *frame.Frame
	cause htm.AbortCause
	site  core.Site
}

func (e *txUnwind) Error() string {
	return fmt.Sprintf("machine: transaction abort (%s) unwinding to its owner frame", e.cause)
}

// commitFraction: a TxTile commits early once the write footprint exceeds
// this fraction of capacity (paper §V-C tiling so state fits in cache).
const commitFractionNum, commitFractionDen = 3, 4

// Run executes p from its invocation entry under the cost model of the tier
// it was lowered for. It returns either a result, a Deopt (OSR exit or
// abort), or an error.
func (m *Machine) Run(p *Program, args []value.Value) (value.Value, *Deopt, error) {
	return m.runFrom(p, args, nil)
}

// EnterAt performs an OSR entry: it resumes the materialized frame fr inside
// the OSR artifact p (compiled with its entry at fr's loop header), binding
// fr's locals to the artifact's OpOSRLocal values and continuing in optimized
// code without returning to the caller. The artifact's transactions begin at
// the OSR entry under the same TxLevel rules as invocation-entry code.
func (m *Machine) EnterAt(p *Program, fr *frame.Frame) (value.Value, *Deopt, error) {
	f := p.f
	if f.OSREntryPC < 0 || fr.PC != f.OSREntryPC {
		return value.Undefined(), nil, fmt.Errorf("machine: %s: OSR entry pc mismatch: frame@%d, artifact@%d", f.Name, fr.PC, f.OSREntryPC)
	}
	m.host.Counters().OSREntries++
	m.Emit(Event{Kind: EventOSREntry, Fn: f.Name, PC: fr.PC, Tier: p.tier})
	return m.runFrom(p, nil, fr)
}

// frameBuf is the scratch storage of one activation: everything whose
// lifetime is a single runFrom. It is reused by every activation that runs at
// the same nesting depth, and its address identifies the activation as a
// transaction owner while it is live.
type frameBuf struct {
	vals  []value.Boxed
	oflow []bool
	// backEdges holds the live per-frame counts followed by their
	// transaction-begin checkpoint.
	backEdges []int64
	phi       []value.Boxed
	args      []value.Value
	// rec is the recovery frame chain the activation's outermost transaction
	// resumes at, innermost first: materialized in place at every begin and
	// tile re-begin, and detached when an abort hands it to Baseline.
	rec []*frame.Frame
}

// recFrame returns the i-th reusable recovery frame.
func (fb *frameBuf) recFrame(i int) *frame.Frame {
	if i == len(fb.rec) {
		fb.rec = append(fb.rec, new(frame.Frame))
	}
	return fb.rec[i]
}

// detachRec gives the recovery chain up to its new owner, the Baseline
// resume of an aborted transaction: a later activation at this depth — that
// resume may call compiled code — materializes into fresh frames.
func (fb *frameBuf) detachRec() {
	clear(fb.rec)
	fb.rec = fb.rec[:0]
}

// runFrom is the shared execution core behind Run and EnterAt: it lends the
// activation the frame buffer of its nesting depth. For OSR entries osr is
// the incoming frame; otherwise args carry the invocation parameters.
func (m *Machine) runFrom(p *Program, args []value.Value, osr *frame.Frame) (value.Value, *Deopt, error) {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, new(frameBuf))
	}
	fb := m.frames[m.depth]
	m.depth++
	res, d, err := m.exec(fb, p, args, osr)
	m.depth--
	return res, d, err
}

// gatherArgs unboxes a call's argument operands into fb's argument window.
// The callee copies its arguments out (the VM's activation set-up, natives);
// a nested activation runs one depth deeper, on its own buffer.
func (fb *frameBuf) gatherArgs(hd *value.Handles, operands []int32, vals []value.Boxed) []value.Value {
	args := fb.args[:0]
	for _, a := range operands {
		args = append(args, hd.Unbox(vals[a]))
	}
	fb.args = args
	return args
}

// exec runs one activation of p on the scratch buffer fb.
func (m *Machine) exec(fb *frameBuf, p *Program, args []value.Value, osr *frame.Frame) (value.Value, *Deopt, error) {
	f, tier := p.f, p.tier
	ctrs := m.host.Counters()
	if tier == profile.TierFTL {
		ctrs.FTLCalls++
	} else {
		ctrs.DFGCalls++
	}

	hd := m.host.Handles()
	nVals := f.NumValues()
	fb.vals = slices.Grow(fb.vals[:0], nVals)[:nVals]
	vals := fb.vals
	for i := range vals {
		vals[i] = value.BoxedUndefined // the zero Boxed is +0.0
	}
	fb.oflow = slices.Grow(fb.oflow[:0], nVals)[:nVals]
	oflow := fb.oflow
	clear(oflow)

	// Loop back edges taken by this frame, not yet folded into the function
	// profiles — one slot per logical frame: slot 0 is the compiled
	// function's own frame, slot i is the flattened activation
	// f.Inlines[i-1], so inlined loop trips still land in the callee's
	// profile. beCheck is the checkpoint the counts roll back to on abort:
	// the squashed iterations are re-executed (and re-counted) by Baseline.
	// An OSR frame may arrive carrying a delta from the tier that handed it
	// over.
	nFrames := len(f.Inlines) + 1
	fb.backEdges = slices.Grow(fb.backEdges[:0], 2*nFrames)[:2*nFrames]
	clear(fb.backEdges)
	backEdges, beCheck := fb.backEdges[:nFrames:nFrames], fb.backEdges[nFrames:]
	if osr != nil {
		backEdges[0] = osr.BackEdges
		osr.BackEdges = 0
	}
	copy(beCheck, backEdges)
	slotSource := func(i int) *bytecode.Function {
		if i == 0 {
			return f.Source
		}
		return f.Inlines[i-1].Source
	}

	account := func(instr, extraCycles int64) {
		inTx := m.HTM.InTx()
		class := stats.NoTM
		if inTx {
			if f.TxAware {
				class = stats.TMOpt
			} else {
				class = stats.TMUnopt
			}
		}
		ctrs.AddInstr(class, instr)
		ctrs.AddCycles(instr+extraCycles, inTx)
	}

	// errf reports a broken engine invariant, never a JavaScript error: those
	// are raised at their site (raisedAt).
	errf := func(format string, a ...any) error {
		return fmt.Errorf("machine: %s: %s", f.Name, fmt.Sprintf(format, a...))
	}

	// materialize builds the Baseline-resumable frame chain from a stack
	// map: the map's own frame plus, through its Caller chain, every
	// enclosing frame the inlining pass flattened, innermost first. OSR
	// frames keep their environment on the root frame; invocation-entry
	// artifacts never touch one (closure-using functions are not compiled)
	// and leave it nil for the JIT driver to supply. Inline frames carry
	// their function object — the program's own, bound to this isolate — so
	// the resume loop can allocate the callee environment. A transaction's
	// recovery chain (reuse) is built in fb's frames; a deopt's, handed
	// straight to Baseline, in new ones.
	materialize := func(sm *ir.StackMap, reuse bool) *frame.Frame {
		var innermost, child *frame.Frame
		n := 0
		for cur := sm; cur != nil; cur = cur.Caller {
			src := f.Source
			var fnObj *value.Function
			idx, retReg := 0, 0
			if cur.Inline != nil {
				src, fnObj = cur.Inline.Source, p.inlines[cur.Inline.Index-1]
				idx, retReg = cur.Inline.Index, cur.Inline.RetReg
			}
			var fr *frame.Frame
			var regs []value.Boxed
			if reuse {
				fr = fb.recFrame(n)
				regs = slices.Grow(fr.Locals[:0], src.NumRegs)[:src.NumRegs]
			} else {
				fr = new(frame.Frame)
				regs = make([]value.Boxed, src.NumRegs)
			}
			n++
			for i := range regs {
				regs[i] = value.BoxedUndefined
			}
			for _, e := range cur.Entries {
				if e.Reg < len(regs) {
					regs[e.Reg] = vals[e.Val.ID]
				}
			}
			*fr = frame.Frame{Fn: src, PC: cur.PC, Locals: regs,
				Function: fnObj, InlineIndex: idx, RetReg: retReg}
			if cur.Inline == nil && osr != nil {
				fr.Env = osr.Env
			}
			if child != nil {
				child.Caller = fr
			} else {
				innermost = fr
			}
			child = fr
		}
		return innermost
	}

	// assignBackEdges hands each frame in the reconstructed chain its
	// surviving back-edge count; slots belonging to flattened activations
	// not present in the chain (already-completed inlined calls whose code
	// the resumed Baseline execution will not re-run) fold straight into
	// their function profiles.
	assignBackEdges := func(fr *frame.Frame) {
		rem := make([]int64, len(backEdges))
		copy(rem, backEdges)
		for x := fr; x != nil; x = x.Caller {
			if x.InlineIndex < len(rem) {
				x.BackEdges = rem[x.InlineIndex]
				rem[x.InlineIndex] = 0
			}
		}
		for i, n := range rem {
			if n != 0 {
				m.host.ProfileFor(slotSource(i)).AddBackEdges(n)
			}
		}
	}

	// ownerDeopt is the transfer out of the frame that owned an aborted
	// transaction, whether the abort fired in it or unwound to it from a
	// callee. Back edges of the squashed iterations roll back to the
	// transaction-begin checkpoint — Baseline re-executes and re-counts them —
	// and the surviving counts travel with the recovery frame chain, which
	// leaves fb for good.
	ownerDeopt := func(rec *frame.Frame, cause htm.AbortCause, site core.Site) *Deopt {
		fb.detachRec()
		copy(backEdges, beCheck)
		assignBackEdges(rec)
		return &Deopt{Frame: rec, Aborted: true, Cause: cause, HadCalls: m.txHadCalls, Site: site}
	}

	// abort rolls back the open transaction nest and routes control to the
	// owner frame's recovery state. The failing site (this frame's IR value
	// sv) travels with the transfer so the governor can attribute the abort.
	abort := func(cause htm.AbortCause, class stats.CheckClass, sv *ir.Value) (*Deopt, error) {
		t := m.HTM.Current()
		if t == nil {
			return nil, errf("abort without open transaction")
		}
		owner := t.Owner.(*frameBuf)
		rec := t.Recover.(*frame.Frame)
		m.Emit(Event{Kind: EventTxAbort, Fn: f.Name, Cause: cause, CheckClass: class, PC: rec.PC, WriteBytes: t.WriteBytes()})
		m.uninstallHook()
		m.rollback()
		if err := m.HTM.Abort(cause); err != nil {
			return nil, err
		}
		if cause == htm.AbortCapacity && m.txHadCalls {
			// §V-C callee blame: this overflow pins the function to TxOff.
			// The call-heavy suite's acceptance check is that inlining
			// drives this counter to zero.
			ctrs.TxCallBlamedAborts++
		}
		site := core.SiteOf(f.Name, sv, class)
		if owner == fb {
			return ownerDeopt(rec, cause, site), nil
		}
		// A callee frame inside the owner's transaction: everything this
		// frame did — including its back edges — is squashed work.
		return nil, &txUnwind{owner: owner, rec: rec, cause: cause, site: site}
	}

	// raise returns a JavaScript error from the site v. Inside a transaction
	// an error is an irrevocable abort, as a fault is on real HTM: the owner
	// rolls back and Baseline re-executes, raising the error itself with
	// precise heap state.
	raise := func(v *ir.Value, err error) (*Deopt, error) {
		if m.HTM.InTx() {
			return abort(htm.AbortIrrevocable, stats.CheckOther, v)
		}
		return nil, err
	}

	// handleCallErr routes errors coming back from calls: transaction
	// unwinds addressed to this frame become Deopts; anything else — an
	// irrevocable operation (htm.ErrIrrevocable), a callee's JavaScript
	// error, an interrupt — is raised from the call site v.
	handleCallErr := func(v *ir.Value, err error) (*Deopt, error) {
		if u, ok := err.(*txUnwind); ok {
			if u.owner == fb {
				return ownerDeopt(u.rec, u.cause, u.site), nil
			}
			return nil, err
		}
		return raise(v, err)
	}

	// begin opens this activation's outermost transaction, its recovery
	// chain materialized from the TxBegin or TxTile value v's stack map.
	begin := func(v *ir.Value) {
		m.HTM.Begin(fb, materialize(v.Deopt, true))
		copy(beCheck, backEdges)
		m.txHadCalls = false
	}

	code, data := p.code, p.data
	pc := p.entry
	for {
		in := &code[pc]
		pc++
		instr := in.weight
		var extra int64

		switch in.op {
		case ir.OpConst:
			// A heap payload is boxed at execution time: string and object
			// handles are per-isolate and per-reset.
			if in.heap {
				vals[in.dst] = hd.Box(in.v.AuxVal)
			} else {
				vals[in.dst] = value.Boxed(in.aux)
			}
		case ir.OpParam:
			if int(in.aux) < len(args) {
				vals[in.dst] = hd.Box(args[in.aux])
			} else {
				vals[in.dst] = value.BoxedUndefined
			}
		case ir.OpOSRLocal:
			if osr != nil && int(in.aux) < len(osr.Locals) {
				vals[in.dst] = osr.Locals[in.aux] // already boxed words
			} else {
				vals[in.dst] = value.BoxedUndefined
			}

		case ir.OpAddInt, ir.OpSubInt, ir.OpMulInt, ir.OpNegInt, ir.OpUShr:
			// The wrapped result flows on; the overflow flag is sticky for
			// the frame, as the paper's SOF is.
			a := vals[in.args[0]].Int32()
			var r int32
			var fits bool
			switch in.op {
			case ir.OpAddInt:
				r, fits = value.AddInt32(a, vals[in.args[1]].Int32())
			case ir.OpSubInt:
				r, fits = value.SubInt32(a, vals[in.args[1]].Int32())
			case ir.OpMulInt:
				r, fits = value.MulInt32(a, vals[in.args[1]].Int32())
			case ir.OpNegInt:
				r, fits = value.NegInt32(a)
			default:
				u := value.UShrInt32(a, vals[in.args[1]].Int32())
				r, fits = int32(u), u <= math.MaxInt32
			}
			if !fits {
				oflow[in.dst] = true
			}
			vals[in.dst] = value.BoxInt(r)

		case ir.OpBitAnd:
			vals[in.dst] = value.BoxInt(vals[in.args[0]].Int32() & vals[in.args[1]].Int32())
		case ir.OpBitOr:
			vals[in.dst] = value.BoxInt(vals[in.args[0]].Int32() | vals[in.args[1]].Int32())
		case ir.OpBitXor:
			vals[in.dst] = value.BoxInt(vals[in.args[0]].Int32() ^ vals[in.args[1]].Int32())
		case ir.OpShl:
			vals[in.dst] = value.BoxInt(value.ShlInt32(vals[in.args[0]].Int32(), vals[in.args[1]].Int32()))
		case ir.OpShr:
			vals[in.dst] = value.BoxInt(value.ShrInt32(vals[in.args[0]].Int32(), vals[in.args[1]].Int32()))

		case ir.OpAddDouble:
			vals[in.dst] = value.BoxNumber(vals[in.args[0]].NumberValue() + vals[in.args[1]].NumberValue())
		case ir.OpSubDouble:
			vals[in.dst] = value.BoxNumber(vals[in.args[0]].NumberValue() - vals[in.args[1]].NumberValue())
		case ir.OpMulDouble:
			vals[in.dst] = value.BoxNumber(vals[in.args[0]].NumberValue() * vals[in.args[1]].NumberValue())
		case ir.OpDivDouble:
			vals[in.dst] = value.BoxNumber(vals[in.args[0]].NumberValue() / vals[in.args[1]].NumberValue())
		case ir.OpModDouble:
			vals[in.dst] = value.BoxNumber(math.Mod(vals[in.args[0]].NumberValue(), vals[in.args[1]].NumberValue()))
		case ir.OpNegDouble:
			vals[in.dst] = value.BoxNumber(-vals[in.args[0]].NumberValue())

		case ir.OpIntToDouble, ir.OpNumberToDouble:
			vals[in.dst] = vals[in.args[0]] // NumberValue() reads either kind
		case ir.OpTruncDouble:
			vals[in.dst] = value.BoxInt(value.DoubleToInt32(vals[in.args[0]].NumberValue()))
		case ir.OpUint32ToDouble:
			vals[in.dst] = value.BoxNumber(float64(uint32(vals[in.args[0]].Int32())))
		case ir.OpToBool:
			vals[in.dst] = value.BoxBool(hd.ToBoolean(vals[in.args[0]]))
		case ir.OpBoolNot:
			vals[in.dst] = value.BoxBool(!vals[in.args[0]].Bool())
		case ir.OpNormalizeHole:
			x := vals[in.args[0]]
			if x.IsHole() {
				x = value.BoxedUndefined
			}
			vals[in.dst] = x

		case ir.OpCmpInt:
			a, b := vals[in.args[0]].Int32(), vals[in.args[1]].Int32()
			vals[in.dst] = value.BoxBool(value.Ordered(value.Cmp(in.aux), a, b))
		case ir.OpCmpDouble:
			a, b := vals[in.args[0]].NumberValue(), vals[in.args[1]].NumberValue()
			vals[in.dst] = value.BoxBool(value.Ordered(value.Cmp(in.aux), a, b))
		case ir.OpStrictEqGeneric:
			vals[in.dst] = value.BoxBool(value.StrictEquals(hd.Unbox(vals[in.args[0]]), hd.Unbox(vals[in.args[1]])))

		case ir.OpCheckInt32, ir.OpCheckNumber, ir.OpCheckShape,
			ir.OpCheckArray, ir.OpCheckBounds, ir.OpCheckNonNeg,
			ir.OpCheckOverflow, ir.OpCheckUint32, ir.OpCheckHole,
			ir.OpCheckCallee:
			v := in.v
			if !in.free {
				if tier == profile.TierFTL {
					ctrs.AddCheck(in.check)
				}
				extra += m.checkMemCost(in, vals)
			}
			passed := m.checkPasses(in, vals, oflow)
			if m.inject != nil {
				switch m.inject.At(Site{SiteKey: m.siteKey(SiteCheck, f, v), Check: in.check,
					HasSMP: v.Deopt != nil, InTx: m.HTM.InTx(), Failed: !passed}) {
				case ActFailCheck:
					// Only force failure where a recovery path exists:
					// a stack map to deopt through, or an open
					// transaction to abort.
					if v.Deopt != nil || m.HTM.InTx() {
						passed = false
					}
				case ActPassCheck:
					passed = true
				}
			}
			if passed {
				if in.dispatch && m.trace != nil {
					m.icHitOnce(EventICHit, f.Name, v)
				}
				break
			}
			// Check failed.
			account(instr, extra)
			if in.dispatch {
				m.Emit(Event{Kind: EventICMiss, Fn: f.Name, PC: v.BCPos, Inline: v.InlinePath(), Shape: v.DispatchShape()})
			}
			if v.Deopt != nil {
				// A kept SMP inside this frame's own transaction: the
				// governor restored this site, so the failure exits
				// surgically. Every write so far was validated at its
				// producing check (deferred detection is disabled when a
				// keep set is present), so the transaction commits before
				// the deopt instead of squandering its work in an abort.
				if t := m.HTM.Current(); t != nil && t.Owner == any(fb) {
					if _, err := m.HTM.Commit(); err != nil {
						return value.Undefined(), nil, err
					}
					m.uninstallHook()
					m.dropUndo()
					account(0, m.HTM.Config().CommitCycles)
					m.Emit(Event{Kind: EventTxCommit, Fn: f.Name, WriteBytes: t.WriteBytes()})
				}
				ctrs.Deopts++
				ctrs.OSRExits++
				rec := materialize(v.Deopt, false)
				assignBackEdges(rec)
				m.Emit(Event{Kind: EventDeopt, Fn: f.Name, CheckClass: in.check, PC: rec.PC, Inline: v.Deopt.InlinePath()})
				return value.Undefined(), &Deopt{Frame: rec, Site: core.SiteOf(f.Name, v, in.check)}, nil
			}
			cause := htm.AbortCause(htm.AbortCheck)
			if in.free && in.check == stats.CheckOverflow {
				cause = htm.AbortSOF
			}
			d, err := abort(cause, in.check, v)
			return value.Undefined(), d, err

		case ir.OpHasShape, ir.OpHasCallee:
			o := hd.ObjectOrNil(vals[in.args[0]])
			var hit bool
			if in.op == ir.OpHasShape {
				hit = o != nil && o.Shape == in.shape
				if o != nil {
					extra += m.load(m.Mem.ShapeAddr(o))
				}
			} else {
				hit = o != nil && o.Fn != nil && o.Fn == in.callee
			}
			if m.inject != nil {
				switch m.inject.At(Site{SiteKey: m.siteKey(SiteDispatch, f, in.v), InTx: m.HTM.InTx(), Failed: !hit}) {
				case ActFailCheck:
					// The way is skipped; the receiver cascades down the
					// chain to the deopting tail guard.
					hit = false
				case ActPassCheck:
					// Stale-shape-cache planted bug: the wrong way's
					// specialized body runs for this receiver.
					hit = true
				}
			}
			vals[in.dst] = value.BoxBool(hit)
			if hit && in.dispatch && m.trace != nil {
				m.icHitOnce(EventICHit, f.Name, in.v)
			}

		case ir.OpTransition:
			// Speculated property add: the way's shape guard proved the
			// property absent, so this is the append path (the write hook
			// records slot + shape word for transactional rollback).
			o := hd.ObjectOrNil(vals[in.args[0]])
			if o != nil {
				o.Set(in.name, hd.Unbox(vals[in.args[1]]))
				if off := o.OffsetOf(in.name); off >= 0 {
					extra += m.Cache.Access(m.Mem.SlotAddr(o, off))
				}
				extra += m.Cache.Access(m.Mem.ShapeAddr(o))
				if m.trace != nil {
					m.icHitOnce(EventICTransition, f.Name, in.v)
				}
			}

		case ir.OpLoadSlot:
			o := hd.ObjectOrNil(vals[in.args[0]])
			off := int(in.aux)
			if o == nil || off >= len(o.Slots) {
				vals[in.dst] = value.BoxedUndefined // garbage pre-abort
				break
			}
			vals[in.dst] = hd.Box(o.GetSlot(off))
			extra += m.load(m.Mem.SlotAddr(o, off))
		case ir.OpStoreSlot:
			o := hd.ObjectOrNil(vals[in.args[0]])
			off := int(in.aux)
			if o == nil || off >= len(o.Slots) {
				break
			}
			o.SetSlot(off, hd.Unbox(vals[in.args[1]]))
			extra += m.Cache.Access(m.Mem.SlotAddr(o, off))
		case ir.OpLoadElem:
			o := hd.ObjectOrNil(vals[in.args[0]])
			i := int(vals[in.args[1]].Int32())
			if o == nil || !o.InBounds(i) {
				vals[in.dst] = value.BoxedUndefined // garbage pre-abort
				break
			}
			vals[in.dst] = hd.Box(o.ElementRaw(i))
			extra += m.load(m.Mem.ElemAddr(o, i))
		case ir.OpStoreElem:
			o := hd.ObjectOrNil(vals[in.args[0]])
			i := int(vals[in.args[1]].Int32())
			if o == nil || i < 0 {
				break
			}
			o.SetElement(i, hd.Unbox(vals[in.args[2]]))
			extra += m.Cache.Access(m.Mem.ElemAddr(o, i))
		case ir.OpLoadLength:
			o := hd.ObjectOrNil(vals[in.args[0]])
			if o == nil {
				vals[in.dst] = value.BoxInt(0)
				break
			}
			vals[in.dst] = value.BoxInt(int32(o.Length))
			extra += m.load(m.Mem.LengthAddr(o))
		case ir.OpLoadGlobal:
			// One shape lookup per access: the global object is never
			// an array, so its offset alone decides presence.
			g := m.host.Globals()
			off := g.OffsetOf(in.name)
			if off < 0 {
				account(instr, extra)
				d, err := raise(in.v, raisedAt(f, in.v, fmt.Errorf("%s is not defined", in.name)))
				return value.Undefined(), d, err
			}
			vals[in.dst] = hd.Box(g.GetSlot(off))
			extra += m.load(m.Mem.SlotAddr(g, off))
		case ir.OpStoreGlobal:
			g := m.host.Globals()
			x := hd.Unbox(vals[in.args[0]])
			off := g.OffsetOf(in.name)
			if off >= 0 {
				g.SetSlot(off, x)
			} else {
				g.Set(in.name, x)
				off = g.OffsetOf(in.name)
			}
			extra += m.Cache.Access(m.Mem.SlotAddr(g, off))

		case ir.OpMathOp:
			mf := &value.MathFuncs[in.aux]
			var b float64
			if mf.Arity > 1 {
				b = vals[in.args[1]].NumberValue()
			}
			vals[in.dst] = value.BoxNumber(mf.Eval(vals[in.args[0]].NumberValue(), b))

		case ir.OpCallDirect:
			this := hd.Unbox(vals[in.args[0]])
			callArgs := fb.gatherArgs(hd, in.args[1:], vals)
			account(instr, extra)
			m.noteUserCall()
			res, err := m.host.Call(in.callee, this, callArgs)
			if err != nil {
				d, err2 := handleCallErr(in.v, callErr(f, in.v, err))
				return value.Undefined(), d, err2
			}
			vals[in.dst] = hd.Box(res)
			instr, extra = 0, 0

		case ir.OpCallRuntime:
			account(instr, extra)
			res, err := m.runtimeCall(fb, p, in, vals)
			if err != nil {
				d, err2 := handleCallErr(in.v, err)
				return value.Undefined(), d, err2
			}
			vals[in.dst] = hd.Box(res)
			instr, extra = 0, 0

		case ir.OpTxBegin:
			if m.HTM.InTx() {
				m.HTM.Begin(nil, nil) // flattened nesting: depth only
				break
			}
			begin(in.v)
			m.installHook()
			extra += m.HTM.Config().BeginCycles
			m.Emit(Event{Kind: EventTxBegin, Fn: f.Name})
			if m.inject != nil {
				act := m.inject.At(Site{SiteKey: m.siteKey(SiteTxBegin, f, in.v), InTx: true})
				if cause, ok := act.abortCause(); ok {
					account(instr, extra)
					d, err := abort(cause, stats.CheckOther, in.v)
					return value.Undefined(), d, err
				}
			}
		case ir.OpTxEnd:
			t := m.HTM.Current()
			if t == nil {
				account(instr, extra)
				return value.Undefined(), nil, errf("txend without transaction")
			}
			if m.inject != nil && t.Depth() == 1 {
				act := m.inject.At(Site{SiteKey: m.siteKey(SiteTxCommit, f, in.v), InTx: true})
				if cause, ok := act.abortCause(); ok {
					account(instr, extra)
					d, err := abort(cause, stats.CheckOther, in.v)
					return value.Undefined(), d, err
				}
			}
			outer, err := m.HTM.Commit()
			if err != nil {
				account(instr, extra)
				return value.Undefined(), nil, err
			}
			if outer {
				m.uninstallHook()
				m.dropUndo()
				extra += m.HTM.Config().CommitCycles
				m.Emit(Event{Kind: EventTxCommit, Fn: f.Name, WriteBytes: t.WriteBytes()})
			}
		case ir.OpTxTile:
			t := m.HTM.Current()
			forceTile := false
			if m.inject != nil && t != nil && t.Owner == any(fb) {
				act := m.inject.At(Site{SiteKey: m.siteKey(SiteTxTile, f, in.v), InTx: true})
				if cause, ok := act.abortCause(); ok {
					account(instr, extra)
					d, err := abort(cause, stats.CheckOther, in.v)
					return value.Undefined(), d, err
				}
				forceTile = act == ActTileCommit
			}
			if t != nil && t.Owner == any(fb) && (forceTile || m.footprintNearCapacity(t)) {
				if _, err := m.HTM.Commit(); err != nil {
					account(instr, extra)
					return value.Undefined(), nil, err
				}
				m.dropUndo()
				m.Emit(Event{Kind: EventTxTileCommit, Fn: f.Name, WriteBytes: t.WriteBytes()})
				begin(in.v)
				cfg := m.HTM.Config()
				extra += cfg.CommitCycles + cfg.BeginCycles
			}

		case opJump, opBranch:
			// Leaving the block: its branch or jump, the loop trip when it
			// is a back edge (counted locally, into the slot of the
			// activation the block was flattened from — aborts roll the
			// counts back to the transaction checkpoint), then the edge's
			// phi parallel copy.
			account(instr, 0)
			if in.aux >= 0 {
				backEdges[in.aux]++
			}
			e := in.edges[0]
			if in.op == opBranch && !hd.ToBoolean(vals[in.args[0]]) {
				e = in.edges[1]
			}
			pc = data[e]
			if n := data[e+1]; n > 0 {
				cp := data[e+2 : e+2+2*n]
				phi := fb.phi[:0]
				for i := 0; i < len(cp); i += 2 {
					x := value.BoxedUndefined
					if src := cp[i+1]; src >= 0 {
						x = vals[src]
					}
					phi = append(phi, x)
				}
				fb.phi = phi
				for i, x := range phi {
					vals[cp[2*i]] = x
				}
			}
			continue
		case opReturn:
			account(instr, 0)
			if in.aux >= 0 {
				backEdges[in.aux]++
			}
			// Clean exit: fold every logical frame's back edges into its
			// function's profile (inlined activations credit the callee). A
			// callee completing inside a still-open enclosing transaction
			// flushes too; if that transaction later aborts, Baseline
			// re-counts its re-executed iterations — a bounded profiling
			// imprecision, never a correctness issue.
			for i, n := range backEdges {
				if n != 0 {
					m.host.ProfileFor(slotSource(i)).AddBackEdges(n)
				}
			}
			return hd.Unbox(vals[in.args[0]]), nil, nil
		case opBadBlock:
			account(instr, 0)
			return value.Undefined(), nil, errf("bad block kind")

		default:
			account(instr, extra)
			return value.Undefined(), nil, errf("unhandled IR op %v", in.op)
		}

		account(instr, extra)

		// A write from this op (or a callee) may have overflowed the
		// transactional capacity; the undo log covers it, so abort now.
		if m.pendingCapacity {
			m.pendingCapacity = false
			d, err := abort(htm.AbortCapacity, stats.CheckOther, in.v)
			return value.Undefined(), d, err
		}
	}
}

// load simulates a data-cache load, applying the RTM in-transaction read
// penalty and read-set tracking.
func (m *Machine) load(addr uint64) int64 {
	lat := m.Cache.Access(addr)
	if m.HTM.InTx() {
		cfg := m.HTM.Config() // the system's own geometry, not a copy
		if cfg.ReadSets > 0 {
			if err := m.HTM.RecordRead(addr, valueSize); err != nil {
				m.pendingCapacity = true
			}
		}
		if cfg.ReadPenaltyNum != cfg.ReadPenaltyDen {
			lat += (lat+4)*(cfg.ReadPenaltyNum-cfg.ReadPenaltyDen)/cfg.ReadPenaltyDen + 1
		}
	}
	return lat
}

// checkMemCost charges the cache accesses a check performs (shape word,
// length word).
func (m *Machine) checkMemCost(in *instr, vals []value.Boxed) int64 {
	hd := m.host.Handles()
	switch in.op {
	case ir.OpCheckShape, ir.OpCheckArray:
		if o := hd.ObjectOrNil(vals[in.args[0]]); o != nil {
			return m.load(m.Mem.ShapeAddr(o))
		}
	case ir.OpCheckBounds:
		if o := hd.ObjectOrNil(vals[in.args[0]]); o != nil {
			return m.load(m.Mem.LengthAddr(o))
		}
	}
	return 0
}

func (m *Machine) checkPasses(in *instr, vals []value.Boxed, oflow []bool) bool {
	hd := m.host.Handles()
	switch in.op {
	case ir.OpCheckInt32:
		return vals[in.args[0]].IsInt32()
	case ir.OpCheckNumber:
		return vals[in.args[0]].IsNumber()
	case ir.OpCheckShape:
		o := hd.ObjectOrNil(vals[in.args[0]])
		return o != nil && o.Shape == in.shape
	case ir.OpCheckArray:
		o := hd.ObjectOrNil(vals[in.args[0]])
		return o != nil && o.IsArray
	case ir.OpCheckBounds:
		o := hd.ObjectOrNil(vals[in.args[0]])
		if o == nil {
			return false
		}
		return o.InBounds(int(vals[in.args[1]].Int32()))
	case ir.OpCheckNonNeg:
		idx := vals[in.args[0]]
		return idx.IsInt32() && idx.Int32() >= 0
	case ir.OpCheckOverflow, ir.OpCheckUint32:
		return !oflow[in.args[0]]
	case ir.OpCheckHole:
		return !vals[in.args[0]].IsHole()
	case ir.OpCheckCallee:
		o := hd.ObjectOrNil(vals[in.args[0]])
		return o != nil && o.Fn != nil && o.Fn == in.callee
	}
	return false
}

// icHitOnce emits an IC trace event the first time the (site, shape) pair
// fires it since the last machine reset, keeping hot-loop traces bounded.
func (m *Machine) icHitOnce(kind EventKind, fn string, v *ir.Value) {
	e := Event{Kind: kind, Fn: fn, PC: v.BCPos, Inline: v.InlinePath(), Shape: v.DispatchShape()}
	if m.icSeen[e] {
		return
	}
	if m.icSeen == nil {
		m.icSeen = make(map[Event]bool)
	}
	m.icSeen[e] = true
	m.Emit(e)
}

func (m *Machine) footprintNearCapacity(t *htm.Txn) bool {
	cfg := m.HTM.Config()
	capBytes := int64(cfg.WriteSets*cfg.WriteWays) * int64(cfg.LineSize)
	return t.WriteBytes() >= capBytes*commitFractionNum/commitFractionDen
}
