package machine

import (
	"fmt"

	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// runtimeCall executes an OpCallRuntime: the generic, corner-case-covering
// runtime entries that optimized code falls back to when speculation is not
// worthwhile (paper Figure 4(b)). Their cost is attributed to the NoFTL
// instruction class, like the paper's C runtime code.
func (m *Machine) runtimeCall(fb *frameBuf, p *Program, in *instr, vals []value.Boxed) (value.Value, error) {
	ctrs := m.host.Counters()
	hd := m.host.Handles()
	f, v := p.f, in.v
	charge := func(n int64) {
		ctrs.AddInstr(stats.NoFTL, n)
		ctrs.AddCycles(n, m.HTM.InTx())
	}
	a := func(i int) value.Value { return hd.Unbox(vals[in.args[i]]) }

	switch in.rt {
	case rtBinop:
		charge(22)
		return bytecode.Op(in.aux).Eval(a(0), a(1)), nil
	case rtUnop:
		charge(16)
		if bytecode.Op(in.aux) == bytecode.OpBitNot {
			return value.BitNot(a(0)), nil
		}
		return value.Neg(a(0)), nil
	case rtTypeof:
		charge(14)
		return value.Str(a(0).TypeOf()), nil
	case rtToNumber:
		charge(14)
		return value.ToNumeric(a(0)), nil

	case rtGetProp:
		charge(32)
		r, err := value.GetProp(a(0), a(1).StringVal())
		return r, raisedAt(f, v, err)
	case rtSetProp:
		charge(32)
		return value.Undefined(), raisedAt(f, v, value.SetProp(a(0), a(1).StringVal(), a(2)))

	case rtGetElem:
		charge(20)
		obj, idx := a(0), a(1)
		r, acc, err := value.GetElem(obj, idx)
		if err == nil {
			m.observeElem(f, v, obj, idx, acc)
		}
		return r, raisedAt(f, v, err)
	case rtSetElem:
		charge(20)
		obj, idx := a(0), a(1)
		acc, err := value.SetElem(obj, idx, a(2))
		if err == nil {
			m.observeElem(f, v, obj, idx, acc)
		}
		return value.Undefined(), raisedAt(f, v, err)

	case rtCall:
		charge(24)
		fn, err := value.Callee(a(0), "function")
		if err != nil {
			return value.Undefined(), raisedAt(f, v, err)
		}
		m.noteUserCall()
		r, err := m.host.Call(fn, value.Undefined(), fb.gatherArgs(hd, in.args[1:], vals))
		return r, callErr(f, v, err)
	case rtCallMethod:
		charge(28)
		m.noteUserCall()
		recv, name := a(0), a(1).StringVal()
		r, err := m.host.InvokeMethod(recv, name, fb.gatherArgs(hd, in.args[2:], vals))
		return r, callErr(f, v, err)
	case rtConstruct:
		charge(36)
		fn, err := value.Callee(a(0), "constructor")
		if err != nil {
			return value.Undefined(), raisedAt(f, v, err)
		}
		m.noteUserCall()
		r, err := m.host.Construct(fn, fb.gatherArgs(hd, in.args[1:], vals))
		return r, callErr(f, v, err)

	case rtNewObject:
		charge(28)
		return value.Obj(value.NewObject(m.host.Shapes(), int(in.aux))), nil
	case rtNewArray:
		charge(28)
		return value.Obj(value.NewArray(m.host.Shapes(), int(in.aux))), nil
	}
	return value.Undefined(), fmt.Errorf("machine: unknown runtime entry %q", in.name)
}

// raisedAt attributes err, a JavaScript error raised by the operation at v, to
// v's bytecode function (an inlined callee's own) and source line: the
// RuntimeError Baseline raises for the same operation. A nil err stays nil.
func raisedAt(f *ir.Func, v *ir.Value, err error) error {
	if err == nil {
		return nil
	}
	src := f.Source
	if v.Inline != nil {
		src = v.Inline.Source
	}
	if src == nil {
		return &bytecode.RuntimeError{Fn: f.Name, Msg: err.Error()}
	}
	return src.Errorf(v.BCPos, "%v", err)
}

// callErr attributes a builtin's own error to the call site v that invoked
// the builtin, as Baseline does; every other error from a call — a callee's
// RuntimeError, an interrupt, a transaction unwind — passes through as is.
func callErr(f *ir.Func, v *ir.Value, err error) error {
	if ne, ok := err.(*bytecode.NativeError); ok {
		return raisedAt(f, v, ne.Err)
	}
	return err
}

// observeElem mirrors the Baseline interpreter's element-site profiling from
// the generic runtime path. OSR entry can carry a function's cold tail into
// machine code before Baseline ever executes it; without slow-path feedback
// those element sites would stay generic runtime calls in every recompile
// (and a generic call pins the §V-C ladder as if the loop had real callees).
func (m *Machine) observeElem(f *ir.Func, v *ir.Value, obj, idx value.Value, acc value.ElemAccess) {
	if f == nil || f.Source == nil {
		return
	}
	prof := m.host.ProfileFor(f.Source)
	if prof == nil || v.BCPos < 0 || v.BCPos >= len(prof.Elem) {
		return
	}
	prof.Elem[v.BCPos].Observe(obj, idx, acc)
}

// noteUserCall marks the open transaction (if any) as having run user code:
// unlike the bounded runtime helpers above, a callee's write footprint is
// unbounded, which is what the §V-C capacity policy blames on overflow.
func (m *Machine) noteUserCall() {
	if m.HTM.InTx() {
		m.txHadCalls = true
	}
}
