package machine

import (
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Program is one installed artifact lowered for the machine: a flat array of
// instructions, one per non-phi IR value plus one terminator per block, that
// the machine executes with a single switch. Everything the hot loop reads
// per instruction — operand indices, the tier's weight, immediates, the
// relocated shape or callee, the runtime entry — is resolved once here. The
// IR value stays reachable from each instruction for the cold paths: stack
// maps, deopt materialization, injection-site keys, events and abort-site
// attribution.
//
// A block is the index range from its first instruction to its terminator.
// Each CFG edge carries its phi parallel copy, precomputed with the first
// predecessor slot matching the edge's source (the order the builder filled
// the phi's arguments in), so the machine never searches a block's
// predecessors or walks its values at run time.
//
// A Program is immutable once lowered (Relocate runs before it is
// installed), apart from its global accesses' offset caches, and is the
// zero value when no artifact is present. Each isolate lowers its own, so
// only that isolate ever writes one.
type Program struct {
	f     *ir.Func
	tier  profile.Tier
	entry int32
	code  []instr
	// data holds the operand lists of the instructions and the edges of the
	// terminators. An edge at offset e is data[e] = the target block's first
	// instruction, data[e+1] = n, then n (dst, src) phi copies; src < 0 copies
	// undefined (a phi with fewer arguments than its block has predecessors).
	data []int32
	// inlines holds the function object of each inline frame, indexed by
	// InlineFrame.Index-1: the binding isolate's own, so deopts inside
	// flattened code never reach the IR's isolate-bound InlineFrame.Callee.
	inlines []*value.Function
}

// Func returns the IR the program was lowered from.
func (p *Program) Func() *ir.Func { return p.f }

// Tier returns the speculative tier whose weights the program carries.
func (p *Program) Tier() profile.Tier { return p.tier }

// Flat-program ops past the IR's own: one terminator per block.
const (
	opJump     = ir.NumOps + iota // continue along edges[0]
	opBranch                      // args[0] truthy ? edges[0] : edges[1]
	opReturn                      // return args[0]
	opBadBlock                    // a block the machine cannot leave (kind or successor count)
)

// rtEntry is an OpCallRuntime's entry, resolved from its AuxStr name when
// the artifact is lowered.
type rtEntry uint8

const (
	rtUnknown rtEntry = iota
	rtBinop
	rtUnop
	rtTypeof
	rtToNumber
	rtGetProp
	rtSetProp
	rtGetElem
	rtSetElem
	rtCall
	rtCallMethod
	rtConstruct
	rtNewObject
	rtNewArray
)

var rtEntries = map[string]rtEntry{
	"binop": rtBinop, "unop": rtUnop, "typeof": rtTypeof, "tonumber": rtToNumber,
	"getprop": rtGetProp, "setprop": rtSetProp, "getelem": rtGetElem, "setelem": rtSetElem,
	"call": rtCall, "callmethod": rtCallMethod, "construct": rtConstruct,
	"newobject": rtNewObject, "newarray": rtNewArray,
}

// instr is one flat-program instruction.
type instr struct {
	op       ir.Op
	rt       rtEntry
	check    stats.CheckClass
	free     bool // a check NoMap made free: weight 0, no Figure 3 count
	dispatch bool // materialized from a dispatch plan
	heap     bool // an OpConst whose payload must be boxed into the isolate's heap
	dst      int32
	// edges are the terminator's successor edges (offsets into data).
	edges [2]int32
	// args are the operand value indices (a window of Program.data); a
	// terminator's args hold its control value.
	args   []int32
	weight int64
	// aux is the op's integer immediate (AuxInt); for an OpConst without a
	// heap payload it is the boxed constant, and for a terminator the
	// back-edge slot it counts into (-1: not a loop back edge).
	aux  int64
	name string // property or global name (AuxStr)
	// shape is the relocated shape the op checks or transitions to. A
	// global access has none; there shape and aux cache the global
	// object's shape it last saw and name's offset in it (globalOffset).
	shape  *value.Shape
	callee *value.Function
	v      *ir.Value
}

// globalOffset returns the offset of a global access's name in the global
// object g, or -1 when g has no such property. A shape's layout never
// changes, so when g still has the shape the instruction saw last, the
// cached offset is exact; otherwise (a global added or rolled back, a new
// global object) it looks the name up and caches a found offset. The cache
// lives in the instruction, which only the isolate the program was lowered
// for ever runs.
func (in *instr) globalOffset(g *value.Object) int {
	if g.Shape == in.shape {
		return int(in.aux)
	}
	off := g.OffsetOf(in.name)
	if off >= 0 {
		in.shape, in.aux = g.Shape, int64(off)
	}
	return off
}

// Lower builds the flat program of f under tier's weights. It costs at most
// three allocations whatever f's size: the instructions, the operand and
// edge data, and the inline-frame callee table when f inlined anything.
func Lower(f *ir.Func, tier profile.Tier) Program {
	w := WeightsFor(tier)
	// Sizing pass: instructions, data words, and the block-start table's
	// extent (block IDs index it).
	nCode, nData, nIDs := 0, 0, 0
	for _, b := range f.Blocks {
		nIDs = max(nIDs, b.ID+1)
		for _, v := range b.Values {
			if v.Op != ir.OpPhi {
				nCode++
				nData += len(v.Args)
			}
		}
		nCode++ // terminator
		if b.Kind == ir.BlockIf || b.Kind == ir.BlockReturn {
			nData++
		}
		for _, s := range b.Succs {
			nData += 2 + 2*leadingPhis(s)
		}
	}
	// The block-start table sits at the front of data while lowering and
	// stays there: it is the block → index-range map.
	p := Program{f: f, tier: tier, code: make([]instr, 0, nCode), data: make([]int32, nIDs, nIDs+nData)}
	start := p.data[:nIDs]
	at := int32(0)
	for _, b := range f.Blocks {
		start[b.ID] = at
		for _, v := range b.Values {
			if v.Op != ir.OpPhi {
				at++
			}
		}
		at++
	}
	if f.Entry != nil {
		p.entry = start[f.Entry.ID]
	}

	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op == ir.OpPhi {
				// Leading phis are assigned by the incoming edge's copy; a
				// phi after the block's first ordinary value is never
				// assigned, as in a block's own phi prologue.
				continue
			}
			in := instr{op: v.Op, dst: int32(v.ID), weight: w.Op(v), aux: v.AuxInt,
				name: v.AuxStr, shape: v.Shape, callee: v.Callee, v: v,
				check: v.Check, free: v.Free, dispatch: v.Dispatch}
			in.args = p.operands(v.Args...)
			switch {
			case v.Op == ir.OpConst:
				k, ok := value.BoxPrimitive(v.AuxVal)
				in.aux, in.heap = int64(k), !ok
			case v.Op == ir.OpCallRuntime:
				in.rt = rtEntries[v.AuxStr]
			case v.Op.IsCheck() && v.Free:
				in.weight = 0
			}
			p.code = append(p.code, in)
		}
		t := instr{weight: blockEdgeCost, aux: -1, dst: -1}
		if b.BackEdge {
			t.aux = 0
			if b.Inline != nil {
				t.aux = int64(b.Inline.Index)
			}
		}
		switch {
		case b.Kind == ir.BlockPlain && len(b.Succs) == 1:
			t.op = opJump
		case b.Kind == ir.BlockIf && len(b.Succs) == 2:
			t.op = opBranch
			t.args = p.operands(b.Control)
		case b.Kind == ir.BlockReturn:
			t.op = opReturn
			t.args = p.operands(b.Control)
		default:
			t.op = opBadBlock
		}
		for i, s := range b.Succs {
			if i < len(t.edges) {
				t.edges[i] = p.edge(b, s, start)
			}
		}
		p.code = append(p.code, t)
	}

	if len(f.Inlines) > 0 {
		p.inlines = make([]*value.Function, len(f.Inlines))
		for i, inf := range f.Inlines {
			p.inlines[i] = inf.Callee
		}
	}
	return p
}

// operands appends the IDs of vs to data and returns their window.
func (p *Program) operands(vs ...*ir.Value) []int32 {
	at := len(p.data)
	for _, v := range vs {
		p.data = append(p.data, int32(v.ID))
	}
	return p.data[at:len(p.data):len(p.data)]
}

// edge appends the edge from b to s — s's first instruction and the phi
// copy for the first of s's predecessor slots that is b — and returns its
// offset.
func (p *Program) edge(b, s *ir.Block, start []int32) int32 {
	k := -1
	for i, pred := range s.Preds {
		if pred == b {
			k = i
			break
		}
	}
	at := int32(len(p.data))
	p.data = append(p.data, start[s.ID], int32(leadingPhis(s)))
	for _, v := range s.Values {
		if v.Op != ir.OpPhi {
			break
		}
		src := int32(-1)
		if k >= 0 && k < len(v.Args) {
			src = int32(v.Args[k].ID)
		}
		p.data = append(p.data, int32(v.ID), src)
	}
	return at
}

// leadingPhis counts the phis at the head of b.
func leadingPhis(b *ir.Block) int {
	n := 0
	for _, v := range b.Values {
		if v.Op != ir.OpPhi {
			break
		}
		n++
	}
	return n
}

// Relocate rewrites the program's isolate-bound references for the isolate
// it is installed in: shape and callee give the replacement for the
// reference carried by the IR value with the given ID, inline the function
// object of inline frame i (0-based). A nil answer means the reference does
// not resolve there; Relocate then reports false and the program must not
// run.
func (p *Program) Relocate(shape func(id int) *value.Shape, callee func(id int) *value.Function, inline func(i int) *value.Function) bool {
	for i := range p.code {
		in := &p.code[i]
		if in.shape != nil {
			if in.shape = shape(in.v.ID); in.shape == nil {
				return false
			}
		}
		if in.callee != nil {
			if in.callee = callee(in.v.ID); in.callee == nil {
				return false
			}
		}
	}
	for i := range p.inlines {
		if p.inlines[i] = inline(i); p.inlines[i] == nil {
			return false
		}
	}
	return true
}
