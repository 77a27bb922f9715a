package opt

import "nomap/internal/ir"

// DCE removes dead pure operations and loads. Liveness roots are: stores,
// calls, every check (checks guard semantics even when their instruction
// cost is zero), transaction markers, block controls, and — crucially for
// the paper's register-pressure story — the stack map entries of every
// remaining Stack Map Point. When NoMap converts a check's SMP into an
// abort, its stack map disappears, and values kept alive only for
// deoptimization die here.
func DCE(f *ir.Func) {
	live := make([]bool, f.NumValues())
	work := make([]*ir.Value, 0, f.NumValues())
	mark := func(v *ir.Value) {
		if v != nil && !live[v.ID] {
			live[v.ID] = true
			work = append(work, v)
		}
	}

	for _, b := range f.Blocks {
		mark(b.Control)
		for _, v := range b.Values {
			switch {
			case v.Op.IsCheck(), v.Op.IsCall(), v.Op.WritesMemory():
				mark(v)
			}
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range v.Args {
			mark(a)
		}
		for sm := v.Deopt; sm != nil; sm = sm.Caller {
			// Inline-frame caller chains keep every logical frame's state
			// alive, not just the innermost map's.
			for _, e := range sm.Entries {
				mark(e.Val)
			}
		}
	}

	for _, b := range f.Blocks {
		kept := b.Values[:0]
		for _, v := range b.Values {
			if live[v.ID] {
				kept = append(kept, v)
			}
		}
		b.Values = kept
		// Entry states may now reference removed values; they are only
		// consumed before optimization, so drop them.
		b.EntryState = nil
	}
}
