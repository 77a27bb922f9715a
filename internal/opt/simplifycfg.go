package opt

import "nomap/internal/ir"

// SimplifyCFG merges straight-line block chains (a Plain block with a single
// successor that has a single predecessor) and retargets branches whose two
// successors are identical. This models the block layout cleanups LLVM's
// -O2 performs; fewer block transitions mean fewer branch instructions in
// the machine's cost model.
//
// Loop headers' EntryState maps survive merging because a header with a
// back edge always has two predecessors and is never merged into its
// predecessor.
func SimplifyCFG(f *ir.Func) {
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			// Branch with identical arms becomes a plain jump.
			if b.Kind == ir.BlockIf && len(b.Succs) == 2 && b.Succs[0] == b.Succs[1] {
				succ := b.Succs[0]
				// Drop one of the duplicate pred entries, preserving phi
				// argument consistency (both args along the duplicate edges
				// are necessarily identical positions in Preds; keep the
				// first, remove the second).
				k := -1
				for i, p := range succ.Preds {
					if p == b {
						if k >= 0 {
							succ.Preds = append(succ.Preds[:i], succ.Preds[i+1:]...)
							removePhiArg(succ, i)
							break
						}
						k = i
					}
				}
				b.Kind = ir.BlockPlain
				b.Control = nil
				b.Succs = b.Succs[:1]
				changed = true
			}
			// Merge b -> c when the edge is the only way in and out.
			if b.Kind == ir.BlockPlain && len(b.Succs) == 1 {
				c := b.Succs[0]
				if c != b && len(c.Preds) == 1 && c.Preds[0] == b && c != f.Entry {
					mergeInto(f, b, c)
					changed = true
				}
			}
		}
	}
	f.ApplyForwarding()
	// Drop unreachable blocks.
	dom := ir.BuildDom(f)
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if dom.Reachable(b) {
			kept = append(kept, b)
		} else {
			// Unlink from successors' pred lists.
			for _, s := range b.Succs {
				for i, p := range s.Preds {
					if p == b {
						s.Preds = append(s.Preds[:i], s.Preds[i+1:]...)
						removePhiArg(s, i)
						break
					}
				}
			}
		}
	}
	f.Blocks = kept
}

// mergeInto appends c's contents to b and rewires edges. c has exactly one
// pred (b), so its phis are trivial single-arg phis; they are forwarded to
// their argument.
func mergeInto(f *ir.Func, b, c *ir.Block) {
	for _, v := range c.Values {
		if v.Op == ir.OpPhi {
			if len(v.Args) == 1 {
				f.Forward(v, v.Args[0])
				continue
			}
		}
		v.Block = b
		b.Values = append(b.Values, v)
	}
	b.Kind = c.Kind
	b.Control = c.Control
	b.Succs = c.Succs
	b.BackEdge = b.BackEdge || c.BackEdge
	if c.BackEdge {
		// The back-edge terminator now ends b; the machine credits a block's
		// back edges to Block.Inline, so the attribution follows it.
		b.Inline = c.Inline
	}
	for _, s := range c.Succs {
		for i, p := range s.Preds {
			if p == c {
				s.Preds[i] = b
			}
		}
	}
	if b.EntryState == nil {
		b.EntryState = c.EntryState
	}
	// Neutralize the absorbed block: it stays in f.Blocks until the
	// unreachable-block sweep, and later pass iterations must not interpret
	// its stale kind against its now-empty successor list.
	c.Kind = ir.BlockPlain
	c.Control = nil
	c.Succs = nil
	c.Preds = nil
	c.Values = nil
}

// removePhiArg deletes argument index i from every phi in b.
func removePhiArg(b *ir.Block, i int) {
	for _, v := range b.Values {
		if v.Op != ir.OpPhi {
			break
		}
		if i < len(v.Args) {
			v.Args = append(v.Args[:i], v.Args[i+1:]...)
		}
	}
}
