// Package interp executes bytecode for the two lowest tiers: the Interpreter
// (tier 0) and the Baseline "compiler" (tier 1). Both run the same bytecode;
// the Baseline tier adds inline caches, type-feedback recording, and a lower
// per-op instruction cost, modelling the Baseline JIT's templated machine
// code. Both executors run frame.Frame activation records and can start at an
// arbitrary pc with a materialized register file — that is the OSR-exit
// (deoptimization) entry path used by the DFG and FTL tiers (paper §II-B).
// The inverse transfer also originates here: every 64 loop back edges the
// executor offers its live frame to the host's OSREntry hook, which may jump
// into an optimized OSR artifact without returning to the caller.
//
// The register file is NaN-boxed (value.Boxed): int32/double/bool and the
// immediates live in one word, strings and objects go through the isolate's
// handle slab. Arithmetic and compares on two int32 boxes run a dedicated
// fast path on the raw payloads; everything else unboxes to the fat Value
// representation, reuses the generic operator semantics, and reboxes.
package interp

import (
	"nomap/internal/bytecode"
	"nomap/internal/frame"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Host is the engine facade the executor calls back into for everything that
// crosses function boundaries: calls, construction, builtin method dispatch,
// profiling storage, and measurement.
type Host interface {
	// Shapes returns the VM's shape table.
	Shapes() *value.ShapeTable
	// Globals returns the global object.
	Globals() *value.Object
	// Handles returns the isolate's NaN-box handle slab (string/object
	// indices shared by every tier's register files).
	Handles() *value.Handles
	// Call invokes a function value through the tiering machinery.
	Call(fn *value.Function, this value.Value, args []value.Value) (value.Value, error)
	// Construct implements `new fn(args)`.
	Construct(fn *value.Function, args []value.Value) (value.Value, error)
	// InvokeMethod performs recv.name(args), dispatching to own properties
	// or builtin prototypes (strings, arrays, Math, ...).
	InvokeMethod(recv value.Value, name string, args []value.Value) (value.Value, error)
	// ArgWindow lends the current call depth's argument window, sized n, to
	// one call made from this depth. The callee copies what it keeps out of
	// it; the next call from the same depth overwrites it.
	ArgWindow(n int) []value.Value
	// MakeClosure wraps a nested bytecode function and its defining
	// environment into a callable value.
	MakeClosure(fn *bytecode.Function, env *value.Environment) value.Value
	// ProfileFor returns the (unique) profile of a bytecode function.
	ProfileFor(fn *bytecode.Function) *profile.FunctionProfile
	// Counters returns the run's measurement sink.
	Counters() *stats.Counters
	// InTransaction reports whether a hardware transaction is active, so
	// cycles executed here are attributed to TMTime (paper Figures 10/11).
	InTransaction() bool
	// OSREntry offers the live frame, stopped at a loop-header pc, for
	// on-stack replacement into a hotter tier. done=true means the host
	// consumed the frame and ran it to completion (res is the function's
	// result); otherwise execution continues here at newTier (which is >=
	// tier: the host may escalate Interpreter to Baseline in place so type
	// feedback accrues before an optimizing OSR compile).
	OSREntry(fr *frame.Frame, tier profile.Tier) (res value.Value, done bool, newTier profile.Tier, err error)
}

// osrPollMask throttles the OSR-entry poll: the host hook runs once every 64
// loop back edges, and only outside transactions (an OSR transfer would
// invalidate the open transaction's recovery entry).
const osrPollMask = 63

// unboxArgs converts a boxed argument window to the fat representation the
// call boundary uses, in the host's argument window for the current depth.
func unboxArgs(h Host, hd *value.Handles, rs []value.Boxed) []value.Value {
	out := h.ArgWindow(len(rs))
	for i, r := range rs {
		out[i] = hd.Unbox(r)
	}
	return out
}

// Exec runs fr from fr.PC until a return, under the given tier's cost model.
// The activation record is the cross-tier frame.Frame: the same value a
// deopting speculative tier materializes, and the same value OSR entry hands
// back out.
func Exec(h Host, fr *frame.Frame, tier profile.Tier) (value.Value, error) {
	fn := fr.Fn
	code := fn.Code
	regs := fr.Locals
	hd := h.Handles()
	baseline := tier != profile.TierInterp
	prof := h.ProfileFor(fn)
	if fr.BackEdges != 0 {
		// Fold the back-edge delta carried over from the tier that handed
		// the frame to us (machine deopt or abort recovery).
		prof.AddBackEdges(fr.BackEdges)
		fr.BackEdges = 0
	}
	ctrs := h.Counters()
	inTx := h.InTransaction()

	var instrs int64
	flush := func() {
		ctrs.AddInstr(stats.NoFTL, instrs)
		ctrs.AddCycles(instrs, inTx) // lower tiers: IPC 1 model
		if baseline {
			ctrs.BaselineOps += instrs
		} else {
			ctrs.InterpOps += instrs
		}
		instrs = 0
	}
	defer flush()

	errf := func(format string, args ...any) error {
		return fn.Errorf(fr.PC, format, args...)
	}
	// callErr attributes a builtin's own error to the call at fr.PC; any
	// other error from a call — a callee's RuntimeError, an interrupt, a
	// transaction abort — passes through unchanged.
	callErr := func(err error) error {
		if ne, ok := err.(*bytecode.NativeError); ok {
			return errf("%v", ne.Err)
		}
		return err
	}

	for {
		in := code[fr.PC]
		if baseline {
			instrs += baselineBaseCost
		} else {
			instrs += interpDispatchCost
		}
		switch in.Op {
		case bytecode.OpNop:

		case bytecode.OpLoadConst:
			regs[in.A] = hd.Box(fn.Consts[in.B])
			instrs += costMove

		case bytecode.OpLoadUndef:
			regs[in.A] = value.BoxedUndefined
			instrs += costMove

		case bytecode.OpMove:
			regs[in.A] = regs[in.B]
			instrs += costMove

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv,
			bytecode.OpMod, bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor,
			bytecode.OpShl, bytecode.OpShr, bytecode.OpUShr,
			bytecode.OpLess, bytecode.OpLessEq, bytecode.OpGreater,
			bytecode.OpGreaterEq, bytecode.OpEq, bytecode.OpNeq,
			bytecode.OpStrictEq, bytecode.OpStrictNeq:
			ab, bb := regs[in.B], regs[in.C]
			if ab.IsInt32() && bb.IsInt32() {
				if res, ok := intBinFast(in.Op, ab.Int32(), bb.Int32(), baseline, prof, fr.PC); ok {
					regs[in.A] = res
					instrs += costArith(baseline, true, true)
					break
				}
			}
			a, b := hd.Unbox(ab), hd.Unbox(bb)
			if baseline {
				prof.Arith[fr.PC].Observe(a, b)
			}
			res := in.Op.Eval(a, b)
			if baseline && !res.IsInt32() {
				// Int32 fast path escaped to double: record the overflow so
				// the speculative tiers compile this site with doubles.
				switch in.Op {
				case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul:
					if a.IsInt32() && b.IsInt32() {
						prof.Arith[fr.PC].SawOverflow = true
					}
				case bytecode.OpUShr:
					prof.Arith[fr.PC].SawOverflow = true
				}
			}
			regs[in.A] = hd.Box(res)
			instrs += costArith(baseline, a.IsInt32() && b.IsInt32(), false)

		case bytecode.OpAddK, bytecode.OpSubK, bytecode.OpMulK:
			// Const-fused arithmetic superinstruction: semantically the
			// loadconst+binop pair it replaced, at one dispatch.
			op := bytecode.OpAdd
			switch in.Op {
			case bytecode.OpSubK:
				op = bytecode.OpSub
			case bytecode.OpMulK:
				op = bytecode.OpMul
			}
			kv := fn.Consts[in.C]
			ab := regs[in.B]
			if ab.IsInt32() && kv.IsInt32() {
				if res, ok := intBinFast(op, ab.Int32(), kv.Int32(), baseline, prof, fr.PC); ok {
					regs[in.A] = res
					instrs += costArith(baseline, true, true) + 1
					break
				}
			}
			a := hd.Unbox(ab)
			if baseline {
				prof.Arith[fr.PC].Observe(a, kv)
			}
			res := op.Eval(a, kv)
			if baseline && !res.IsInt32() && a.IsInt32() && kv.IsInt32() {
				prof.Arith[fr.PC].SawOverflow = true
			}
			regs[in.A] = hd.Box(res)
			instrs += costArith(baseline, a.IsInt32() && kv.IsInt32(), false) + 1

		case bytecode.OpIncr:
			// In-place increment superinstruction: ToNumber + add-immediate +
			// store, the five-instruction ++/-- pattern at one dispatch.
			delta := in.B
			x := regs[in.A]
			if x.IsInt32() {
				xi := x.Int32()
				s, fits := value.AddInt32(xi, delta)
				if baseline {
					prof.Arith[fr.PC].Observe(value.Int(xi), value.Int(delta))
					if !fits {
						prof.Arith[fr.PC].SawOverflow = true
					}
				}
				regs[in.A] = widen(s, fits, float64(xi)+float64(delta))
				instrs += costArith(baseline, true, true) + 4
			} else {
				xn := hd.Unbox(x)
				if !xn.IsNumber() {
					xn = value.ToNumeric(xn)
					instrs += costSlowCall
				}
				if baseline {
					prof.Arith[fr.PC].Observe(xn, value.Int(delta))
				}
				res := value.Add(xn, value.Int(delta))
				if baseline && xn.IsInt32() && !res.IsInt32() {
					prof.Arith[fr.PC].SawOverflow = true
				}
				regs[in.A] = hd.Box(res)
				instrs += costArith(baseline, xn.IsInt32(), false) + 4
			}

		case bytecode.OpCmpJF, bytecode.OpCmpJT, bytecode.OpCmpKJF, bytecode.OpCmpKJT:
			// Compare-and-branch superinstruction (LEJK style): the compare's
			// dead boolean register is gone; the branch consumes the flag.
			cop := bytecode.Op(in.D)
			ab := regs[in.A]
			var bb value.Boxed
			var kv value.Value
			konst := in.Op == bytecode.OpCmpKJF || in.Op == bytecode.OpCmpKJT
			if konst {
				kv = fn.Consts[in.B]
			} else {
				bb = regs[in.B]
			}
			var cond bool
			if ab.IsInt32() && ((konst && kv.IsInt32()) || (!konst && bb.IsInt32())) {
				ri := kv.Int32()
				if !konst {
					ri = bb.Int32()
				}
				if baseline {
					prof.Arith[fr.PC].Observe(value.Int(ab.Int32()), value.Int(ri))
				}
				cond = value.Ordered(cop.Cmp(), ab.Int32(), ri)
				instrs += costArith(baseline, true, true) + 2
			} else {
				a := hd.Unbox(ab)
				b := kv
				if !konst {
					b = hd.Unbox(bb)
				}
				if baseline {
					prof.Arith[fr.PC].Observe(a, b)
				}
				cond = cop.Eval(a, b).Bool()
				instrs += costArith(baseline, a.IsInt32() && b.IsInt32(), false) + 2
			}
			if konst {
				instrs++
			}
			onTrue := in.Op == bytecode.OpCmpJT || in.Op == bytecode.OpCmpKJT
			if cond == onTrue {
				fr.PC = int(in.C)
				continue
			}

		case bytecode.OpNeg:
			b := hd.Unbox(regs[in.B])
			if baseline {
				prof.Arith[fr.PC].Observe(b, b)
			}
			res := value.Neg(b)
			if baseline && b.IsInt32() && !res.IsInt32() {
				prof.Arith[fr.PC].SawOverflow = true
			}
			regs[in.A] = hd.Box(res)
			instrs += costArith(baseline, b.IsInt32(), false)
		case bytecode.OpNot:
			regs[in.A] = value.BoxBool(!hd.ToBoolean(regs[in.B]))
			instrs += costMove + 1
		case bytecode.OpBitNot:
			regs[in.A] = hd.Box(value.BitNot(hd.Unbox(regs[in.B])))
			instrs += costArith(baseline, regs[in.B].IsInt32(), false)
		case bytecode.OpTypeof:
			regs[in.A] = hd.BoxStr(hd.Unbox(regs[in.B]).TypeOf())
			instrs += costSlowCall
		case bytecode.OpToNumber:
			v := regs[in.B]
			if v.IsNumber() {
				regs[in.A] = v
				instrs += costMove
			} else {
				regs[in.A] = hd.Box(value.ToNumeric(hd.Unbox(v)))
				instrs += costSlowCall
			}

		case bytecode.OpJump:
			if in.IsBackEdge(fr.PC) {
				prof.BackEdgeCount++
				instrs++
				fr.PC = int(in.A)
				if prof.BackEdgeCount&osrPollMask == 0 && !inTx {
					flush()
					res, done, newTier, err := h.OSREntry(fr, tier)
					if err != nil {
						return value.Undefined(), err
					}
					if done {
						return res, nil
					}
					if newTier != tier {
						tier = newTier
						baseline = tier != profile.TierInterp
					}
					inTx = h.InTransaction()
				}
				continue
			}
			fr.PC = int(in.A)
			continue
		case bytecode.OpJumpIfTrue:
			instrs += 2
			if hd.ToBoolean(regs[in.A]) {
				fr.PC = int(in.B)
				continue
			}
		case bytecode.OpJumpIfFalse:
			instrs += 2
			if !hd.ToBoolean(regs[in.A]) {
				fr.PC = int(in.B)
				continue
			}

		case bytecode.OpReturn:
			instrs += costReturn
			return hd.Unbox(regs[in.A]), nil

		case bytecode.OpCall:
			cf, err := value.Callee(hd.Unbox(regs[in.B]), "function")
			if err != nil {
				return value.Undefined(), errf("%v", err)
			}
			if baseline {
				prof.Calls[fr.PC].Observe(cf)
			}
			instrs += costCall(baseline)
			flush()
			res, err := h.Call(cf, value.Undefined(), unboxArgs(h, hd, regs[in.C:in.C+in.D]))
			if err != nil {
				return value.Undefined(), callErr(err)
			}
			inTx = h.InTransaction()
			regs[in.A] = hd.Box(res)

		case bytecode.OpCallMethod:
			recv := hd.Unbox(regs[in.B])
			if baseline && recv.IsObject() {
				o := recv.Object()
				if m := o.Get(fn.Names[in.E]); m.IsCallable() {
					prof.Calls[fr.PC].ObserveMethod(m.Object().Fn, o.Shape)
				} else {
					prof.Calls[fr.PC].Poly = true
					prof.Calls[fr.PC].Mega = true
				}
			} else if baseline {
				prof.Calls[fr.PC].Poly = true
				prof.Calls[fr.PC].Mega = true
			}
			instrs += costCall(baseline) + 4
			flush()
			res, err := h.InvokeMethod(recv, fn.Names[in.E], unboxArgs(h, hd, regs[in.C:in.C+in.D]))
			if err != nil {
				return value.Undefined(), callErr(err)
			}
			inTx = h.InTransaction()
			regs[in.A] = hd.Box(res)

		case bytecode.OpNew:
			cf, err := value.Callee(hd.Unbox(regs[in.B]), "constructor")
			if err != nil {
				return value.Undefined(), errf("%v", err)
			}
			instrs += costCall(baseline) + 6
			flush()
			res, err := h.Construct(cf, unboxArgs(h, hd, regs[in.C:in.C+in.D]))
			if err != nil {
				return value.Undefined(), callErr(err)
			}
			inTx = h.InTransaction()
			regs[in.A] = hd.Box(res)

		case bytecode.OpNewObject:
			regs[in.A] = hd.BoxObject(value.NewObject(h.Shapes(), int(in.B)))
			instrs += costAlloc
		case bytecode.OpNewArray:
			regs[in.A] = hd.BoxObject(value.NewArray(h.Shapes(), int(in.B)))
			instrs += costAlloc

		case bytecode.OpGetProp:
			obj := hd.Unbox(regs[in.B])
			v, cost, err := getProp(prof, baseline, obj, fn.Names[in.C], int(in.D))
			if err != nil {
				return value.Undefined(), errf("%v", err)
			}
			regs[in.A] = hd.Box(v)
			instrs += cost

		case bytecode.OpSetProp:
			obj := hd.Unbox(regs[in.A])
			cost, err := setProp(prof, baseline, obj, fn.Names[in.B], hd.Unbox(regs[in.C]), int(in.D))
			if err != nil {
				return value.Undefined(), errf("%v", err)
			}
			instrs += cost

		case bytecode.OpGetElem:
			// The generic loadArrayValue runtime call (paper §IV-B), with
			// Baseline's element-site feedback.
			obj, idx := hd.Unbox(regs[in.B]), hd.Unbox(regs[in.C])
			v, acc, err := value.GetElem(obj, idx)
			if err != nil {
				return value.Undefined(), errf("%v", err)
			}
			if baseline {
				prof.Elem[fr.PC].Observe(obj, idx, acc)
			}
			regs[in.A] = hd.Box(v)
			instrs += elemPathCost(acc.Path)

		case bytecode.OpSetElem:
			obj, idx := hd.Unbox(regs[in.A]), hd.Unbox(regs[in.B])
			acc, err := value.SetElem(obj, idx, hd.Unbox(regs[in.C]))
			if err != nil {
				return value.Undefined(), errf("%v", err)
			}
			if baseline {
				prof.Elem[fr.PC].Observe(obj, idx, acc)
			}
			instrs += elemPathCost(acc.Path)

		case bytecode.OpSetElemI:
			obj := hd.Unbox(regs[in.A])
			if o := obj.Object(); o != nil && o.IsArray {
				o.SetElement(int(in.B), hd.Unbox(regs[in.C]))
			} else {
				return value.Undefined(), errf("array literal target is not an array")
			}
			instrs += costElem(baseline)

		case bytecode.OpGetGlobal:
			// One shape lookup: the global object is never an array, so
			// no synthesized property can hide behind a missing offset.
			g := h.Globals()
			name := fn.Names[in.B]
			off := g.OffsetOf(name)
			if off < 0 {
				return value.Undefined(), errf("%s is not defined", name)
			}
			regs[in.A] = hd.Box(g.GetSlot(off))
			instrs += costGlobal(baseline)

		case bytecode.OpSetGlobal:
			h.Globals().Set(fn.Names[in.A], hd.Unbox(regs[in.B]))
			instrs += costGlobal(baseline)

		case bytecode.OpGetCell:
			regs[in.A] = hd.Box(fr.Env.At(int(in.B), int(in.C)).V)
			instrs += costCell(int(in.B))
		case bytecode.OpSetCell:
			fr.Env.At(int(in.A), int(in.B)).V = hd.Unbox(regs[in.C])
			instrs += costCell(int(in.A))

		case bytecode.OpMakeClosure:
			regs[in.A] = hd.Box(h.MakeClosure(fn.Funcs[in.B], fr.Env))
			instrs += costAlloc + 4

		default:
			return value.Undefined(), errf("unknown opcode %v", in.Op)
		}
		fr.PC++
	}
}

// intBinFast evaluates a binary op whose operands are both boxed int32s
// without unboxing, including baseline type feedback. ok=false means the op
// has no dedicated int32 path (Div/Mod keep their generic corner handling)
// and nothing was recorded.
func intBinFast(op bytecode.Op, x, y int32, baseline bool, prof *profile.FunctionProfile, pc int) (value.Boxed, bool) {
	var res value.Boxed
	var r int32
	fits := true
	switch op {
	case bytecode.OpAdd:
		r, fits = value.AddInt32(x, y)
		res = widen(r, fits, float64(x)+float64(y))
	case bytecode.OpSub:
		r, fits = value.SubInt32(x, y)
		res = widen(r, fits, float64(x)-float64(y))
	case bytecode.OpMul:
		r, fits = value.MulInt32(x, y)
		res = widen(r, fits, float64(x)*float64(y))
	case bytecode.OpBitAnd:
		res = value.BoxInt(x & y)
	case bytecode.OpBitOr:
		res = value.BoxInt(x | y)
	case bytecode.OpBitXor:
		res = value.BoxInt(x ^ y)
	case bytecode.OpShl:
		res = value.BoxInt(value.ShlInt32(x, y))
	case bytecode.OpShr:
		res = value.BoxInt(value.ShrInt32(x, y))
	case bytecode.OpUShr:
		res = value.BoxNumber(float64(value.UShrInt32(x, y)))
		fits = res.IsInt32()
	case bytecode.OpLess, bytecode.OpLessEq, bytecode.OpGreater, bytecode.OpGreaterEq,
		bytecode.OpEq, bytecode.OpNeq, bytecode.OpStrictEq, bytecode.OpStrictNeq:
		res = value.BoxBool(value.Ordered(op.Cmp(), x, y))
	default:
		return 0, false
	}
	if baseline {
		prof.Arith[pc].Observe(value.Int(x), value.Int(y))
		if !fits {
			prof.Arith[pc].SawOverflow = true
		}
	}
	return res, true
}

// widen boxes an int32 kernel's result, or the exact double when it did not
// fit.
func widen(r int32, fits bool, exact float64) value.Boxed {
	if fits {
		return value.BoxInt(r)
	}
	return value.BoxDouble(exact)
}

// getProp implements property load with the Baseline tier's monomorphic
// inline cache. Cost reflects IC hit (shape compare + slot load) vs. miss
// (full hash lookup via a runtime call).
func getProp(prof *profile.FunctionProfile, baseline bool, obj value.Value, name string, icSlot int) (value.Value, int64, error) {
	if o := obj.Object(); o != nil && baseline {
		ic := &prof.ICs[icSlot]
		if o.IsArray && name == "length" {
			ic.SawArrayLength = true
			return value.Int(int32(o.Length)), propICHitCost, nil
		}
		if ic.Shape == o.Shape {
			ic.Hits++
			ic.ObserveWay(o.Shape, ic.Offset, nil)
			return o.GetSlot(ic.Offset), propICHitCost, nil
		}
		off := o.OffsetOf(name)
		if off >= 0 {
			if ic.Shape != nil {
				ic.Poly = true
			}
			ic.Shape, ic.Offset = o.Shape, off
			ic.ObserveWay(o.Shape, off, nil)
		} else {
			// The property is absent on this receiver: no slot to
			// dispatch to, so the site saturates to the generic path.
			ic.Mega = true
		}
		ic.Misses++
	}
	v, err := value.GetProp(obj, name)
	switch obj.Kind() {
	case value.KindObject, value.KindUndefined, value.KindNull:
	case value.KindString:
		if name == "length" {
			return v, propICHitCost + 2, nil
		}
	default:
		if baseline {
			prof.ICs[icSlot].SawNonObject = true
		}
	}
	return v, propMissCost, err
}

func setProp(prof *profile.FunctionProfile, baseline bool, obj value.Value, name string, v value.Value, icSlot int) (int64, error) {
	if o := obj.Object(); o != nil && baseline && !(o.IsArray && name == "length") {
		ic := &prof.ICs[icSlot]
		if ic.Shape == o.Shape && ic.NewShape == nil {
			// Replace-in-place hit.
			if off := o.OffsetOf(name); off == ic.Offset && off >= 0 {
				ic.Hits++
				ic.ObserveWay(o.Shape, off, nil)
				o.SetSlot(off, v)
				return propICHitCost, nil
			}
		}
		if ic.Shape == o.Shape && ic.NewShape != nil {
			// Cached transition (property add) hit.
			ic.Hits++
			before := o.Shape
			o.Set(name, v)
			ic.ObserveWay(before, o.OffsetOf(name), o.Shape)
			return propICHitCost + 2, nil
		}
		before := o.Shape
		off := o.OffsetOf(name)
		o.Set(name, v)
		if ic.Shape != nil && ic.Shape != before {
			ic.Poly = true
		}
		ic.Shape = before
		if off >= 0 {
			ic.Offset = off
			ic.NewShape = nil
			ic.ObserveWay(before, off, nil)
		} else {
			ic.NewShape = o.Shape
			ic.ObserveWay(before, o.OffsetOf(name), o.Shape)
		}
		ic.Misses++
		return propMissCost, nil
	}
	return propMissCost, value.SetProp(obj, name, v)
}

// elemPathCost is a generic element access's cost by how it resolved.
func elemPathCost(p value.ElemPath) int64 {
	switch p {
	case value.ElemString:
		return elemCost + 4
	case value.ElemProperty:
		return elemCost + propMissCost
	}
	return elemCost
}
