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
// condition: a fresh address map, cold caches, and cleared HTM state — an
// open transaction is dropped without rollback, its write hook uninstalled.
// The jit backend's Reset calls it so differential runs on a reused engine
// see the same address stream and cache behaviour as a fresh one.
func (m *Machine) ResetState() {
	m.Mem = NewMemory()
	m.Cache = cache.NewHierarchy()
	m.HTM.Reset()
	m.uninstallHook()
	m.dropUndo()
	m.depth = 0
	for _, fb := range m.frames {
		clear(fb.args[:cap(fb.args)]) // the old heap's values
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

// Run executes f from its invocation entry with the given tier's cost model.
// It returns either a result, a Deopt (OSR exit or abort), or an error.
func (m *Machine) Run(f *ir.Func, tier profile.Tier, args []value.Value) (value.Value, *Deopt, error) {
	return m.runFrom(f, tier, args, nil)
}

// EnterAt performs an OSR entry: it resumes the materialized frame fr inside
// the OSR artifact f (compiled with its entry at fr's loop header), binding
// fr's locals to the artifact's OpOSRLocal values and continuing in optimized
// code without returning to the caller. The artifact's transactions begin at
// the OSR entry under the same TxLevel rules as invocation-entry code.
func (m *Machine) EnterAt(f *ir.Func, tier profile.Tier, fr *frame.Frame) (value.Value, *Deopt, error) {
	if f.OSREntryPC < 0 || fr.PC != f.OSREntryPC {
		return value.Undefined(), nil, fmt.Errorf("machine: %s: OSR entry pc mismatch: frame@%d, artifact@%d", f.Name, fr.PC, f.OSREntryPC)
	}
	m.host.Counters().OSREntries++
	m.Emit(Event{Kind: EventOSREntry, Fn: f.Name, PC: fr.PC, Tier: tier})
	return m.runFrom(f, tier, nil, fr)
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
}

// runFrom is the shared execution core behind Run and EnterAt: it lends the
// activation the frame buffer of its nesting depth. For OSR entries osr is
// the incoming frame; otherwise args carry the invocation parameters.
func (m *Machine) runFrom(f *ir.Func, tier profile.Tier, args []value.Value, osr *frame.Frame) (value.Value, *Deopt, error) {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, new(frameBuf))
	}
	fb := m.frames[m.depth]
	m.depth++
	res, d, err := m.exec(fb, f, tier, args, osr)
	m.depth--
	return res, d, err
}

// gatherArgs unboxes a call's argument operands into fb's argument window.
// The callee copies its arguments out (the VM's activation set-up, natives);
// a nested activation runs one depth deeper, on its own buffer.
func (fb *frameBuf) gatherArgs(hd *value.Handles, operands []*ir.Value, vals []value.Boxed) []value.Value {
	args := fb.args[:0]
	for _, a := range operands {
		args = append(args, hd.Unbox(vals[a.ID]))
	}
	fb.args = args
	return args
}

// exec runs one activation of f on the scratch buffer fb.
func (m *Machine) exec(fb *frameBuf, f *ir.Func, tier profile.Tier, args []value.Value, osr *frame.Frame) (value.Value, *Deopt, error) {
	w := WeightsFor(tier)
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
	// their function object so the resume loop can allocate the callee
	// environment.
	materialize := func(sm *ir.StackMap) *frame.Frame {
		var innermost, child *frame.Frame
		for cur := sm; cur != nil; cur = cur.Caller {
			src := f.Source
			var fnObj *value.Function
			idx, retReg := 0, 0
			if cur.Inline != nil {
				src, fnObj = cur.Inline.Source, cur.Inline.Callee
				idx, retReg = cur.Inline.Index, cur.Inline.RetReg
			}
			regs := make([]value.Boxed, src.NumRegs)
			for i := range regs {
				regs[i] = value.BoxedUndefined
			}
			for _, e := range cur.Entries {
				if e.Reg < len(regs) {
					regs[e.Reg] = vals[e.Val.ID]
				}
			}
			fr := &frame.Frame{Fn: src, PC: cur.PC, Locals: regs,
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
	// and the surviving counts travel with the recovery frame chain.
	ownerDeopt := func(rec *frame.Frame, cause htm.AbortCause, site core.Site) *Deopt {
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

	block := f.Entry
	var prev *ir.Block
	for {
		// Phi parallel copy on block entry.
		if prev != nil {
			k := block.PredIndex(prev)
			phi := fb.phi[:0]
			for _, v := range block.Values {
				if v.Op != ir.OpPhi {
					break
				}
				if k < len(v.Args) {
					phi = append(phi, vals[v.Args[k].ID])
				} else {
					phi = append(phi, value.BoxedUndefined)
				}
			}
			fb.phi = phi
			i := 0
			for _, v := range block.Values {
				if v.Op != ir.OpPhi {
					break
				}
				vals[v.ID] = phi[i]
				i++
			}
		}

		for _, v := range block.Values {
			if v.Op == ir.OpPhi {
				continue
			}
			instr := w.Op(v)
			var extra int64

			switch v.Op {
			case ir.OpConst:
				// Boxed at execution time: the ir.Func is shared across
				// isolates, and string/object handles are per-isolate.
				vals[v.ID] = hd.Box(v.AuxVal)
			case ir.OpParam:
				if int(v.AuxInt) < len(args) {
					vals[v.ID] = hd.Box(args[v.AuxInt])
				} else {
					vals[v.ID] = value.BoxedUndefined
				}
			case ir.OpOSRLocal:
				if osr != nil && int(v.AuxInt) < len(osr.Locals) {
					vals[v.ID] = osr.Locals[v.AuxInt] // already boxed words
				} else {
					vals[v.ID] = value.BoxedUndefined
				}

			case ir.OpAddInt, ir.OpSubInt, ir.OpMulInt, ir.OpNegInt, ir.OpUShr:
				// The wrapped result flows on; the overflow flag is sticky for
				// the frame, as the paper's SOF is.
				a := vals[v.Args[0].ID].Int32()
				var r int32
				var fits bool
				switch v.Op {
				case ir.OpAddInt:
					r, fits = value.AddInt32(a, vals[v.Args[1].ID].Int32())
				case ir.OpSubInt:
					r, fits = value.SubInt32(a, vals[v.Args[1].ID].Int32())
				case ir.OpMulInt:
					r, fits = value.MulInt32(a, vals[v.Args[1].ID].Int32())
				case ir.OpNegInt:
					r, fits = value.NegInt32(a)
				default:
					u := value.UShrInt32(a, vals[v.Args[1].ID].Int32())
					r, fits = int32(u), u <= math.MaxInt32
				}
				if !fits {
					oflow[v.ID] = true
				}
				vals[v.ID] = value.BoxInt(r)

			case ir.OpBitAnd:
				vals[v.ID] = value.BoxInt(vals[v.Args[0].ID].Int32() & vals[v.Args[1].ID].Int32())
			case ir.OpBitOr:
				vals[v.ID] = value.BoxInt(vals[v.Args[0].ID].Int32() | vals[v.Args[1].ID].Int32())
			case ir.OpBitXor:
				vals[v.ID] = value.BoxInt(vals[v.Args[0].ID].Int32() ^ vals[v.Args[1].ID].Int32())
			case ir.OpShl:
				vals[v.ID] = value.BoxInt(value.ShlInt32(vals[v.Args[0].ID].Int32(), vals[v.Args[1].ID].Int32()))
			case ir.OpShr:
				vals[v.ID] = value.BoxInt(value.ShrInt32(vals[v.Args[0].ID].Int32(), vals[v.Args[1].ID].Int32()))

			case ir.OpAddDouble:
				vals[v.ID] = value.BoxNumber(vals[v.Args[0].ID].NumberValue() + vals[v.Args[1].ID].NumberValue())
			case ir.OpSubDouble:
				vals[v.ID] = value.BoxNumber(vals[v.Args[0].ID].NumberValue() - vals[v.Args[1].ID].NumberValue())
			case ir.OpMulDouble:
				vals[v.ID] = value.BoxNumber(vals[v.Args[0].ID].NumberValue() * vals[v.Args[1].ID].NumberValue())
			case ir.OpDivDouble:
				vals[v.ID] = value.BoxNumber(vals[v.Args[0].ID].NumberValue() / vals[v.Args[1].ID].NumberValue())
			case ir.OpModDouble:
				vals[v.ID] = value.BoxNumber(math.Mod(vals[v.Args[0].ID].NumberValue(), vals[v.Args[1].ID].NumberValue()))
			case ir.OpNegDouble:
				vals[v.ID] = value.BoxNumber(-vals[v.Args[0].ID].NumberValue())

			case ir.OpIntToDouble, ir.OpNumberToDouble:
				vals[v.ID] = vals[v.Args[0].ID] // NumberValue() reads either kind
			case ir.OpTruncDouble:
				vals[v.ID] = value.BoxInt(value.DoubleToInt32(vals[v.Args[0].ID].NumberValue()))
			case ir.OpUint32ToDouble:
				vals[v.ID] = value.BoxNumber(float64(uint32(vals[v.Args[0].ID].Int32())))
			case ir.OpToBool:
				vals[v.ID] = value.BoxBool(hd.ToBoolean(vals[v.Args[0].ID]))
			case ir.OpBoolNot:
				vals[v.ID] = value.BoxBool(!vals[v.Args[0].ID].Bool())
			case ir.OpNormalizeHole:
				x := vals[v.Args[0].ID]
				if x.IsHole() {
					x = value.BoxedUndefined
				}
				vals[v.ID] = x

			case ir.OpCmpInt:
				a, b := vals[v.Args[0].ID].Int32(), vals[v.Args[1].ID].Int32()
				vals[v.ID] = value.BoxBool(value.Ordered(value.Cmp(v.AuxInt), a, b))
			case ir.OpCmpDouble:
				a, b := vals[v.Args[0].ID].NumberValue(), vals[v.Args[1].ID].NumberValue()
				vals[v.ID] = value.BoxBool(value.Ordered(value.Cmp(v.AuxInt), a, b))
			case ir.OpStrictEqGeneric:
				vals[v.ID] = value.BoxBool(value.StrictEquals(hd.Unbox(vals[v.Args[0].ID]), hd.Unbox(vals[v.Args[1].ID])))

			case ir.OpCheckInt32, ir.OpCheckNumber, ir.OpCheckShape,
				ir.OpCheckArray, ir.OpCheckBounds, ir.OpCheckNonNeg,
				ir.OpCheckOverflow, ir.OpCheckUint32, ir.OpCheckHole,
				ir.OpCheckCallee:
				free := v.Free
				if free {
					instr = 0
				} else {
					if tier == profile.TierFTL {
						ctrs.AddCheck(v.Check)
					}
					extra += m.checkMemCost(v, vals)
				}
				passed := m.checkPasses(v, vals, oflow)
				if m.inject != nil {
					switch m.inject.At(Site{SiteKey: m.siteKey(SiteCheck, f, v), Check: v.Check,
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
					if v.Dispatch && m.trace != nil {
						m.icHitOnce(EventICHit, f.Name, v)
					}
					break
				}
				// Check failed.
				account(instr, extra)
				if v.Dispatch {
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
					rec := materialize(v.Deopt)
					assignBackEdges(rec)
					m.Emit(Event{Kind: EventDeopt, Fn: f.Name, CheckClass: v.Check, PC: rec.PC, Inline: v.Deopt.InlinePath()})
					return value.Undefined(), &Deopt{Frame: rec, Site: core.SiteOf(f.Name, v, v.Check)}, nil
				}
				cause := htm.AbortCause(htm.AbortCheck)
				if free && v.Check == stats.CheckOverflow {
					cause = htm.AbortSOF
				}
				d, err := abort(cause, v.Check, v)
				return value.Undefined(), d, err

			case ir.OpHasShape, ir.OpHasCallee:
				var hit bool
				if v.Op == ir.OpHasShape {
					o := hd.ObjectOrNil(vals[v.Args[0].ID])
					hit = o != nil && o.Shape == v.Shape
					if o != nil {
						extra += m.load(m.Mem.ShapeAddr(o))
					}
				} else {
					o := hd.ObjectOrNil(vals[v.Args[0].ID])
					hit = o != nil && o.Fn != nil && o.Fn == v.Callee
				}
				if m.inject != nil {
					switch m.inject.At(Site{SiteKey: m.siteKey(SiteDispatch, f, v), InTx: m.HTM.InTx(), Failed: !hit}) {
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
				vals[v.ID] = value.BoxBool(hit)
				if hit && v.Dispatch && m.trace != nil {
					m.icHitOnce(EventICHit, f.Name, v)
				}

			case ir.OpTransition:
				// Speculated property add: the way's shape guard proved the
				// property absent, so this is the append path (the write hook
				// records slot + shape word for transactional rollback).
				o := hd.ObjectOrNil(vals[v.Args[0].ID])
				if o != nil {
					o.Set(v.AuxStr, hd.Unbox(vals[v.Args[1].ID]))
					if off := o.OffsetOf(v.AuxStr); off >= 0 {
						extra += m.Cache.Access(m.Mem.SlotAddr(o, off))
					}
					extra += m.Cache.Access(m.Mem.ShapeAddr(o))
					if m.trace != nil {
						m.icHitOnce(EventICTransition, f.Name, v)
					}
				}

			case ir.OpLoadSlot:
				o := hd.ObjectOrNil(vals[v.Args[0].ID])
				off := int(v.AuxInt)
				if o == nil || off >= len(o.Slots) {
					vals[v.ID] = value.BoxedUndefined // garbage pre-abort
					break
				}
				vals[v.ID] = hd.Box(o.GetSlot(off))
				extra += m.load(m.Mem.SlotAddr(o, off))
			case ir.OpStoreSlot:
				o := hd.ObjectOrNil(vals[v.Args[0].ID])
				off := int(v.AuxInt)
				if o == nil || off >= len(o.Slots) {
					break
				}
				o.SetSlot(off, hd.Unbox(vals[v.Args[1].ID]))
				extra += m.Cache.Access(m.Mem.SlotAddr(o, off))
			case ir.OpLoadElem:
				o := hd.ObjectOrNil(vals[v.Args[0].ID])
				i := int(vals[v.Args[1].ID].Int32())
				if o == nil || !o.InBounds(i) {
					vals[v.ID] = value.BoxedUndefined // garbage pre-abort
					break
				}
				vals[v.ID] = hd.Box(o.ElementRaw(i))
				extra += m.load(m.Mem.ElemAddr(o, i))
			case ir.OpStoreElem:
				o := hd.ObjectOrNil(vals[v.Args[0].ID])
				i := int(vals[v.Args[1].ID].Int32())
				if o == nil || i < 0 {
					break
				}
				o.SetElement(i, hd.Unbox(vals[v.Args[2].ID]))
				extra += m.Cache.Access(m.Mem.ElemAddr(o, i))
			case ir.OpLoadLength:
				o := hd.ObjectOrNil(vals[v.Args[0].ID])
				if o == nil {
					vals[v.ID] = value.BoxInt(0)
					break
				}
				vals[v.ID] = value.BoxInt(int32(o.Length))
				extra += m.load(m.Mem.LengthAddr(o))
			case ir.OpLoadGlobal:
				// One shape lookup per access: the global object is never
				// an array, so its offset alone decides presence.
				g := m.host.Globals()
				off := g.OffsetOf(v.AuxStr)
				if off < 0 {
					account(instr, extra)
					d, err := raise(v, raisedAt(f, v, fmt.Errorf("%s is not defined", v.AuxStr)))
					return value.Undefined(), d, err
				}
				vals[v.ID] = hd.Box(g.GetSlot(off))
				extra += m.load(m.Mem.SlotAddr(g, off))
			case ir.OpStoreGlobal:
				g := m.host.Globals()
				x := hd.Unbox(vals[v.Args[0].ID])
				off := g.OffsetOf(v.AuxStr)
				if off >= 0 {
					g.SetSlot(off, x)
				} else {
					g.Set(v.AuxStr, x)
					off = g.OffsetOf(v.AuxStr)
				}
				extra += m.Cache.Access(m.Mem.SlotAddr(g, off))

			case ir.OpMathOp:
				mf := &value.MathFuncs[v.AuxInt]
				var b float64
				if mf.Arity > 1 {
					b = vals[v.Args[1].ID].NumberValue()
				}
				vals[v.ID] = value.BoxNumber(mf.Eval(vals[v.Args[0].ID].NumberValue(), b))

			case ir.OpCallDirect:
				this := hd.Unbox(vals[v.Args[0].ID])
				callArgs := fb.gatherArgs(hd, v.Args[1:], vals)
				account(instr, extra)
				if m.HTM.InTx() {
					m.txHadCalls = true
				}
				res, err := m.host.Call(v.Callee, this, callArgs)
				if err != nil {
					d, err2 := handleCallErr(v, err)
					return value.Undefined(), d, err2
				}
				vals[v.ID] = hd.Box(res)
				instr, extra = 0, 0

			case ir.OpCallRuntime:
				account(instr, extra)
				res, err := m.runtimeCall(fb, f, v, vals)
				if err != nil {
					d, err2 := handleCallErr(v, err)
					return value.Undefined(), d, err2
				}
				vals[v.ID] = hd.Box(res)
				instr, extra = 0, 0

			case ir.OpTxBegin:
				if m.HTM.InTx() {
					m.HTM.Begin(nil, nil) // flattened nesting: depth only
				} else {
					rec := materialize(v.Deopt)
					m.HTM.Begin(fb, rec)
					m.installHook()
					copy(beCheck, backEdges)
					m.txHadCalls = false
					extra += m.HTM.Config().BeginCycles
					m.Emit(Event{Kind: EventTxBegin, Fn: f.Name})
					if m.inject != nil {
						act := m.inject.At(Site{SiteKey: m.siteKey(SiteTxBegin, f, v), InTx: true})
						if cause, ok := act.abortCause(); ok {
							account(instr, extra)
							d, err := abort(cause, stats.CheckOther, v)
							return value.Undefined(), d, err
						}
					}
				}
			case ir.OpTxEnd:
				t := m.HTM.Current()
				if t == nil {
					account(instr, extra)
					return value.Undefined(), nil, errf("txend without transaction")
				}
				if m.inject != nil && t.Depth() == 1 {
					act := m.inject.At(Site{SiteKey: m.siteKey(SiteTxCommit, f, v), InTx: true})
					if cause, ok := act.abortCause(); ok {
						account(instr, extra)
						d, err := abort(cause, stats.CheckOther, v)
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
					act := m.inject.At(Site{SiteKey: m.siteKey(SiteTxTile, f, v), InTx: true})
					if cause, ok := act.abortCause(); ok {
						account(instr, extra)
						d, err := abort(cause, stats.CheckOther, v)
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
					rec := materialize(v.Deopt)
					m.HTM.Begin(fb, rec)
					copy(beCheck, backEdges)
					m.txHadCalls = false
					extra += m.HTM.Config().CommitCycles + m.HTM.Config().BeginCycles
				}

			default:
				account(instr, extra)
				return value.Undefined(), nil, errf("unhandled IR op %v", v.Op)
			}

			account(instr, extra)

			// A write from this op (or a callee) may have overflowed the
			// transactional capacity; the undo log covers it, so abort now.
			if m.pendingCapacity {
				m.pendingCapacity = false
				d, err := abort(htm.AbortCapacity, stats.CheckOther, v)
				return value.Undefined(), d, err
			}
		}

		account(blockEdgeCost, 0)
		if block.BackEdge {
			// The block ends in the bytecode's backward unconditional jump:
			// count the same loop trip the bytecode tiers count, locally —
			// aborts roll the counts back to the transaction checkpoint. A
			// block flattened from an inlined callee counts into that
			// activation's slot so the trip lands in the callee's profile.
			idx := 0
			if block.Inline != nil {
				idx = block.Inline.Index
			}
			backEdges[idx]++
		}
		prev = block
		switch block.Kind {
		case ir.BlockPlain:
			block = block.Succs[0]
		case ir.BlockIf:
			if hd.ToBoolean(vals[block.Control.ID]) {
				block = block.Succs[0]
			} else {
				block = block.Succs[1]
			}
		case ir.BlockReturn:
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
			return hd.Unbox(vals[block.Control.ID]), nil, nil
		default:
			return value.Undefined(), nil, errf("bad block kind")
		}
	}
}

// load simulates a data-cache load, applying the RTM in-transaction read
// penalty and read-set tracking.
func (m *Machine) load(addr uint64) int64 {
	lat := m.Cache.Access(addr)
	if m.HTM.InTx() {
		cfg := m.HTM.Config()
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
func (m *Machine) checkMemCost(v *ir.Value, vals []value.Boxed) int64 {
	hd := m.host.Handles()
	switch v.Op {
	case ir.OpCheckShape, ir.OpCheckArray:
		if o := hd.ObjectOrNil(vals[v.Args[0].ID]); o != nil {
			return m.load(m.Mem.ShapeAddr(o))
		}
	case ir.OpCheckBounds:
		if o := hd.ObjectOrNil(vals[v.Args[0].ID]); o != nil {
			return m.load(m.Mem.LengthAddr(o))
		}
	}
	return 0
}

func (m *Machine) checkPasses(v *ir.Value, vals []value.Boxed, oflow []bool) bool {
	hd := m.host.Handles()
	switch v.Op {
	case ir.OpCheckInt32:
		return vals[v.Args[0].ID].IsInt32()
	case ir.OpCheckNumber:
		return vals[v.Args[0].ID].IsNumber()
	case ir.OpCheckShape:
		o := hd.ObjectOrNil(vals[v.Args[0].ID])
		return o != nil && o.Shape == v.Shape
	case ir.OpCheckArray:
		o := hd.ObjectOrNil(vals[v.Args[0].ID])
		return o != nil && o.IsArray
	case ir.OpCheckBounds:
		o := hd.ObjectOrNil(vals[v.Args[0].ID])
		if o == nil {
			return false
		}
		idx := vals[v.Args[1].ID]
		return o.InBounds(int(idx.Int32()))
	case ir.OpCheckNonNeg:
		idx := vals[v.Args[0].ID]
		return idx.IsInt32() && idx.Int32() >= 0
	case ir.OpCheckOverflow, ir.OpCheckUint32:
		return !oflow[v.Args[0].ID]
	case ir.OpCheckHole:
		return !vals[v.Args[0].ID].IsHole()
	case ir.OpCheckCallee:
		o := hd.ObjectOrNil(vals[v.Args[0].ID])
		return o != nil && o.Fn != nil && o.Fn == v.Callee
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
