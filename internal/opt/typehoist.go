package opt

import "nomap/internal/ir"

// HoistTypeChecks models JavaScriptCore's TypeCheckHoistingPhase (paper
// §III-A1): a DFG-level pass that hoists certain checks on loop-invariant
// values to the loop preheader even in the Base configuration, because at
// this level the compiler understands OSR exits natively and can rewrite
// the relocated check's stack map.
//
// Hoisting legality here is about fact invariance, not code motion across
// SMPs:
//
//   - CheckInt32 / CheckNumber on an invariant value: always hoistable — an
//     SSA value's representation never changes.
//   - CheckArray on an invariant value: hoistable — an object's array-ness
//     is fixed at allocation in this engine.
//   - CheckShape on an invariant object: hoistable only when the loop
//     contains no calls (a callee could transition the shape mid-loop; the
//     paper notes the pass's "conservative analysis" leaves many checks).
//   - CheckBounds and CheckOverflow: never hoisted here — combining those
//     requires transactions (paper §IV-C), which is NoMap's contribution.
//
// A relocated SMP-carrying check receives a fresh stack map valid at the
// preheader (deopting there re-executes the whole loop in Baseline, which
// is correct because the hoisted facts are invariant).
func HoistTypeChecks(f *ir.Func) {
	for _, l := range f.LoopsInnermostFirst() {
		hoistTypeChecksInLoop(f, l)
	}
}

func hoistTypeChecksInLoop(f *ir.Func, l *ir.Loop) {
	pre := l.Preheader()
	if pre == nil || pre.Kind != ir.BlockPlain || l.Header.EntryState == nil {
		return
	}
	hasCalls := false
	for _, b := range l.BlockList() {
		for _, v := range b.Values {
			if v.Op == ir.OpCallDirect || v.Op == ir.OpCallRuntime {
				hasCalls = true
			}
		}
	}
	// Deduplicate hoisted checks per (op, arg, shape).
	type key struct {
		op    ir.Op
		arg   *ir.Value
		shape uint32
	}
	hoisted := map[key]bool{}
	preMap := ir.ResolveEntryState(l.Header, pre)

	for _, b := range l.BlockList() {
		for i := 0; i < len(b.Values); i++ {
			v := b.Values[i]
			if !v.Op.IsCheck() || len(v.Args) != 1 {
				continue
			}
			if v.Dispatch {
				// Dispatch-tree guards are control-dependent on their chain:
				// hoisting one way's guard would fail it for every other
				// way's receiver.
				continue
			}
			arg := v.Args[0]
			if l.Contains(arg.Block) {
				continue // not invariant
			}
			switch v.Op {
			case ir.OpCheckInt32, ir.OpCheckNumber, ir.OpCheckArray:
				// always hoistable
			case ir.OpCheckShape:
				if hasCalls {
					continue
				}
			default:
				continue
			}
			var sid uint32
			if v.Shape != nil {
				sid = v.Shape.ID
			}
			k := key{op: v.Op, arg: arg, shape: sid}
			b.RemoveValue(v)
			i--
			if hoisted[k] {
				continue // an identical hoisted check already guards this
			}
			hoisted[k] = true
			v.Block = pre
			pre.Values = append(pre.Values, v)
			if v.Deopt != nil {
				// Relocated SMP: deopt state becomes "before the loop". The
				// preheader map's inline frame and caller chain carry over —
				// for a loop inside flattened callee code the relocated
				// check still reconstructs the full logical frame stack.
				v.Deopt = f.MapHeader(preMap)
			}
		}
	}
}
