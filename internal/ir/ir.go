// Package ir defines the SSA intermediate representation used by the
// speculative tiers (DFG and FTL), including the Stack Map Points the paper
// studies: every speculation check carries a deoptimization stack map that
// transfers execution to the Baseline tier when the check fails (paper §II-B,
// §III). NoMap's transformation replaces those stack maps with transactional
// aborts (paper §IV-B).
package ir

import (
	"fmt"
	"strings"

	"nomap/internal/bytecode"
	"nomap/internal/ic"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Type is the static type an IR value is speculated to have. Checks enforce
// the speculation dynamically; failing checks deoptimize (or abort).
type Type uint8

const (
	TypeGeneric Type = iota // boxed JS value of unknown representation
	TypeInt32
	TypeDouble
	TypeBool
	TypeObject
	TypeString
	TypeNone // produces no value (stores, checks, control)
)

// String returns a short type name.
func (t Type) String() string {
	switch t {
	case TypeGeneric:
		return "gen"
	case TypeInt32:
		return "i32"
	case TypeDouble:
		return "f64"
	case TypeBool:
		return "b"
	case TypeObject:
		return "obj"
	case TypeString:
		return "str"
	case TypeNone:
		return "none"
	}
	return "?"
}

// StackMapEntry maps one bytecode register to the IR value holding its
// content at a Stack Map Point.
type StackMapEntry struct {
	Reg int
	Val *Value
}

// StackMap is the paper's Stack Map Entry: it describes where every live
// program variable lives so On-Stack Replacement can materialize a Baseline
// frame (paper §II-B). When the map belongs to code flattened by the
// inlining pass, Inline identifies the inlined activation the registers
// belong to and Caller is the enclosing frame's map at the flattened call
// site, so a single deopt reconstructs the whole logical frame stack.
type StackMap struct {
	// PC is the bytecode pc at which Baseline execution resumes. For an
	// inline map it is a pc within Inline.Source; a Caller map's PC is the
	// pc of the flattened call itself (the resume loop installs the return
	// value and steps past it).
	PC int
	// Entries lists live bytecode registers and their IR values. For an
	// inline map the registers are the inlined callee's, not the root's.
	Entries []StackMapEntry
	// Inline is the inlined activation this map describes, nil for the root
	// frame of the compiled function.
	Inline *InlineFrame
	// Caller is the next-outer frame's map at the call that was flattened;
	// nil exactly when Inline is nil.
	Caller *StackMap
}

// Map chunks grow from minMapChunk to maxMapChunk maps by doubling; an entry
// chunk holds a map chunk's worth of the requested map's entries.
const (
	minMapChunk = 8
	maxMapChunk = 128
)

// mapArena carves StackMaps and their entries from chunks, so a pass that
// makes many maps allocates a few times. Like a value chunk, a map chunk
// stays reachable while any map or entry in it is.
type mapArena struct {
	maps    []StackMap
	entries []StackMapEntry
}

// newMap returns a map at pc with n zeroed entries. Entries is capped at n,
// so a later append copies instead of writing into the next map's entries.
func (a *mapArena) newMap(pc, n int) *StackMap {
	if len(a.maps) == cap(a.maps) {
		a.maps = make([]StackMap, 0, min(max(2*cap(a.maps), minMapChunk), maxMapChunk))
	}
	a.maps = append(a.maps, StackMap{PC: pc})
	sm := &a.maps[len(a.maps)-1]
	if cap(a.entries)-len(a.entries) < n {
		a.entries = make([]StackMapEntry, 0, cap(a.maps)*n)
	}
	start := len(a.entries)
	a.entries = a.entries[:start+n]
	sm.Entries = a.entries[start : start+n : start+n]
	return sm
}

// MapHeader returns a new stack map with sm's PC, frame and caller that
// shares sm's Entries, carved from f's map arena: each holder gets a header
// of its own, and none copies the entries.
func (f *Func) MapHeader(sm *StackMap) *StackMap {
	h := f.maps.newMap(sm.PC, 0)
	h.Entries, h.Inline, h.Caller = sm.Entries, sm.Inline, sm.Caller
	return h
}

// InlineFrame describes one callee activation flattened into a compiled
// function by the speculative inlining pass. Deopt maps reference it so the
// machine can rebuild the logical interpreter frame stack; the machine also
// uses it to attribute back-edge counts and abort sites to the callee the
// code textually came from.
type InlineFrame struct {
	// Parent is the enclosing inlined activation, nil when the caller is the
	// compiled function's own (root) frame.
	Parent *InlineFrame
	// Callee is the function object whose body was flattened (carries the
	// environment the reconstructed frame needs).
	Callee *value.Function
	// Source is the callee's bytecode (register file layout, back-edge pcs).
	Source *bytecode.Function
	// CallPC is the bytecode pc of the flattened call in the caller's code
	// (the caller's Source, i.e. Parent.Source or the root function).
	CallPC int
	// RetReg is the caller register that receives the callee's result.
	RetReg int
	// Depth is 1 for callees inlined directly into the root frame.
	Depth int
	// Index is this frame's 1-based position in Func.Inlines; index 0 is
	// reserved for the root frame in per-frame machine accounting.
	Index int
}

// Path renders the inline position as "callee@pc" segments from the
// outermost inlined callee to this one. It identifies a check site
// textually — two inlinings of the same callee at different call sites get
// distinct paths — and is the site-attribution key the governor and oracle
// use alongside the bytecode pc.
func (inf *InlineFrame) Path() string {
	if inf == nil {
		return ""
	}
	s := fmt.Sprintf("%s@%d", inf.Callee.Name, inf.CallPC)
	if inf.Parent != nil {
		return inf.Parent.Path() + "/" + s
	}
	return s
}

// InlinePath returns sm's inline path, or "" for a root-frame map.
func (sm *StackMap) InlinePath() string { return sm.Inline.Path() }

// Value is one SSA value / instruction.
type Value struct {
	ID int
	// Op, Type and the one-byte fields after them sit together, so a Value
	// carries no padding between them.
	Op   Op
	Type Type

	// Check is the check class for Check* ops (Figure 3 categories).
	Check stats.CheckClass

	// Dispatch marks values materialized from a dispatch plan: the guard
	// chain's predicates and its deopting tail guard. Dispatch checks are
	// control-dependent on the chain — hoisting one out of its diamond would
	// fail it for every other way's receiver — so the loop passes exclude
	// them, and site identity (governor ledgers, oracle keys) carries their
	// per-shape component.
	Dispatch bool

	// Free marks a check whose instructions were eliminated by NoMap (the
	// SOF removes in-transaction overflow checks, §IV-C2; the unrealistic
	// NoMap_BC removes every in-transaction check). The machine still
	// enforces the guarded condition — failing a free check aborts — but it
	// costs zero instructions and is excluded from the Figure 3 counts.
	Free bool

	Args  []*Value
	Block *Block

	// Immediates (meaning depends on Op).
	AuxInt   int64
	AuxFloat float64
	AuxStr   string
	AuxVal   value.Value     // Const payload
	Shape    *value.Shape    // CheckShape expectation
	Callee   *value.Function // CallDirect / CheckCallee target

	// Plan is a polymorphic dispatch plan attached by the builder to a
	// generic-call placeholder (OpCallRuntime). The ExpandDispatch pass
	// lowers it to a shape-guarded dispatch tree and clears it; a placeholder
	// whose plan is never expanded (demoted or megamorphic site) is already a
	// correct generic call.
	Plan *ic.Plan

	// Deopt is the Stack Map Point guarding this check: non-nil means "on
	// failure, OSR-exit to Baseline here". NoMap sets it to nil inside
	// transactions, turning the check into a transactional abort. For
	// TxBegin/TxTile values it is the abort-recovery entry (Entry₃ in paper
	// Figure 5).
	Deopt *StackMap

	// BCPos is the bytecode pc this value derives from. For inlined values
	// it is a pc within Inline.Source.
	BCPos int

	// Inline identifies the inlined activation this value was flattened
	// from, nil for values belonging to the compiled function itself. Site
	// attribution (governor ledgers, injector/oracle keys) combines it with
	// BCPos so the same callee inlined at two call sites stays two sites.
	Inline *InlineFrame
}

// InlinePath returns v's inline path, or "" for a root-frame value.
func (v *Value) InlinePath() string { return v.Inline.Path() }

// DispatchShape names the per-shape variant a dispatch-marked value guards:
// the receiver shape's transition path (dot-joined) or, for callee-identity
// guards, the candidate target's name. It is "" for every non-dispatch
// value, so existing site identity — governor ledgers, oracle keys, keep-set
// exports — is byte-identical when no dispatch trees are in play.
func (v *Value) DispatchShape() string {
	if !v.Dispatch {
		return ""
	}
	if v.Shape != nil {
		return strings.Join(v.Shape.Path(), ".")
	}
	if v.Callee != nil {
		return v.Callee.Name
	}
	return "?"
}

// BlockKind says how a block ends.
type BlockKind uint8

const (
	BlockPlain  BlockKind = iota // one successor
	BlockIf                      // two successors: [then, else], Control is the condition
	BlockReturn                  // no successors, Control is the result
)

// Block is a basic block.
type Block struct {
	ID      int
	Kind    BlockKind
	Values  []*Value
	Control *Value
	Succs   []*Block
	Preds   []*Block

	// StartPC is the bytecode pc of the block's first instruction (-1 for
	// synthetic blocks).
	StartPC int
	// BackEdge marks a block whose bytecode terminator is a loop back edge
	// (bytecode.Instr.IsBackEdge), the edges the bytecode tiers count in
	// BackEdgeCount. The machine counts the same edges when leaving such a
	// block so loop-trip profiling stays consistent across tiers.
	BackEdge bool
	// EntryState is the Baseline register state at block entry, captured at
	// construction. NoMap's transaction formation derives its recovery
	// stack maps from loop headers' entry states. Valid until DCE runs.
	EntryState *StackMap

	// Inline identifies the inlined activation this block was flattened
	// from, nil for the compiled function's own blocks. The machine uses it
	// to credit the block's back edges to the right function's profile.
	Inline *InlineFrame

	Fn *Func
}

// Func is an IR function.
type Func struct {
	Name   string
	Source *bytecode.Function
	Blocks []*Block
	Entry  *Block

	nextValueID int
	nextBlockID int

	// values is the chunk NewValue and InsertValueAt carve their Values
	// from: one allocation holds many values, and a full chunk is left to
	// the values that point into it while the next one is allocated.
	values []Value
	// operands, edges and blockChunk do the same for value operands (Args),
	// block edge lists (Preds, Succs) and Blocks; maps for stack maps and
	// their entries.
	operands   []*Value
	edges      []*Block
	blockChunk []Block
	maps       mapArena

	// an caches the dominator tree and loop forest (dom.go).
	an analyses

	// fwd maps a forwarded value's ID to the value replacing it; it is
	// empty unless a pass has forwarded since its last apply (forward.go).
	fwd []*Value

	// TxAware is set once NoMap has formed transactions in this function.
	TxAware bool

	// OSREntryPC is the bytecode loop-header pc this artifact enters at, or
	// -1 for a normal (invocation-entry) compilation. OSR-entry artifacts
	// take their live state from OpOSRLocal values bound at machine.EnterAt
	// instead of OpParam values.
	OSREntryPC int

	// Inlines lists every activation the inlining pass flattened into this
	// function, in flattening order; Inlines[i].Index == i+1. The machine
	// sizes its per-frame back-edge accounting from it.
	Inlines []*InlineFrame

	// Dispatch summarizes every dispatch tree ExpandDispatch materialized in
	// this function, in expansion order. The JIT driver reports them as
	// cache-fill events; diagnostics render them in IR dumps.
	Dispatch []DispatchInfo
}

// DispatchInfo records one materialized dispatch tree.
type DispatchInfo struct {
	// PC is the site's bytecode pc; Path its inline path ("" for root code).
	PC   int
	Path string
	Kind ic.Kind
	// Name is the property or method name ("" for plain calls).
	Name string
	// Ways is the chain length; Trans counts ways speculating a transition.
	Ways  int
	Trans int
}

// NewFunc creates an empty function for source fn.
func NewFunc(name string, source *bytecode.Function) *Func {
	return &Func{Name: name, Source: source, OSREntryPC: -1}
}

// Block chunks grow from minBlockChunk to maxBlockChunk blocks by doubling.
const (
	minBlockChunk = 4
	maxBlockChunk = 64
)

// NewBlock appends a fresh block.
func (f *Func) NewBlock() *Block {
	if len(f.blockChunk) == cap(f.blockChunk) {
		f.reserveBlocks(min(max(2*cap(f.blockChunk), minBlockChunk), maxBlockChunk))
	}
	f.blockChunk = f.blockChunk[:len(f.blockChunk)+1]
	b := &f.blockChunk[len(f.blockChunk)-1]
	*b = Block{ID: f.nextBlockID, Fn: f, StartPC: -1}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	f.InvalidateCFG()
	return b
}

// reserveBlocks makes room for n more blocks in one chunk, so a caller that
// knows how many blocks it is about to make allocates them at once.
func (f *Func) reserveBlocks(n int) {
	if cap(f.blockChunk)-len(f.blockChunk) < n {
		f.blockChunk = make([]Block, 0, n)
	}
}

// The chunks carve starts grow from minSliceChunk to maxSliceChunk entries
// by doubling; a request larger than that gets a chunk of its own size.
const (
	minSliceChunk = 32
	maxSliceChunk = 1024
)

// carve returns (*chunk)[s:s+n:s+c] for the next free s, or nil when c is
// 0, starting a new chunk when fewer than c entries are left. The slice is
// capped at c, so an append past c copies instead of writing into the next
// carved slice; the rest of a chunk too small for a request is left unused.
func carve[T any](chunk *[]T, n, c int) []T {
	if c == 0 {
		return nil
	}
	if cap(*chunk)-len(*chunk) < c {
		*chunk = make([]T, 0, max(min(max(2*cap(*chunk), minSliceChunk), maxSliceChunk), c))
	}
	s := len(*chunk)
	*chunk = (*chunk)[:s+c]
	return (*chunk)[s : s+n : s+c]
}

// splitAt drops b.Values[ci] and moves the values after it, with b's
// terminator and successor edges, to a new continuation block it returns; b
// is left plain with no successor, for the caller to wire up. StartPC stays
// with b: the continuation must never pass for the loop header b may be.
// Making the continuation drops f's cached analyses.
func splitAt(b *Block, ci int) *Block {
	cont := b.Fn.NewBlock()
	cont.Kind = b.Kind
	cont.Control = b.Control
	cont.BackEdge = b.BackEdge
	cont.Inline = b.Inline
	cont.Values = append(cont.Values, b.Values[ci+1:]...)
	for _, w := range cont.Values {
		w.Block = cont
	}
	cont.Succs = b.Succs
	for _, s := range cont.Succs {
		for i, p := range s.Preds {
			if p == b {
				s.Preds[i] = cont
			}
		}
	}
	b.Values = b.Values[:ci]
	b.Kind = BlockPlain
	b.Control = nil
	b.Succs = nil
	b.BackEdge = false
	return cont
}

// Value chunks grow from minValueChunk to maxValueChunk values by doubling,
// so a small function allocates little and a wide one a few times.
const (
	minValueChunk = 16
	maxValueChunk = 512
)

// allocValue returns a zeroed Value from f's chunk. A chunk is never
// reallocated, so the pointers it hands out stay valid; it stays reachable
// while any of its values is.
func (f *Func) allocValue() *Value {
	if len(f.values) == cap(f.values) {
		f.values = make([]Value, 0, min(max(2*cap(f.values), minValueChunk), maxValueChunk))
	}
	f.values = f.values[:len(f.values)+1]
	return &f.values[len(f.values)-1]
}

// newValue creates an unplaced value of b with the next ID. Its Args are a
// copy of args carved from the function's operand chunk, so the caller's
// variadic array need not outlive the call.
func (b *Block) newValue(op Op, t Type, args []*Value) *Value {
	f := b.Fn
	v := f.allocValue()
	*v = Value{ID: f.nextValueID, Op: op, Type: t, Block: b}
	if len(args) > 0 {
		v.Args = carve(&f.operands, len(args), len(args))
		copy(v.Args, args)
	}
	f.nextValueID++
	return v
}

// NewValue creates a value in block b. Its Args are a copy of args.
func (b *Block) NewValue(op Op, t Type, args ...*Value) *Value {
	v := b.newValue(op, t, args)
	b.Values = append(b.Values, v)
	return v
}

// InsertValueAt creates a value placed at index i within b. Its Args are a
// copy of args.
func (b *Block) InsertValueAt(i int, op Op, t Type, args ...*Value) *Value {
	v := b.newValue(op, t, args)
	b.Values = append(b.Values, nil)
	copy(b.Values[i+1:], b.Values[i:])
	b.Values[i] = v
	return v
}

// NumValues returns the number of values allocated in the function (IDs are
// dense in [0, NumValues)).
func (f *Func) NumValues() int { return f.nextValueID }

// AddEdge links b -> succ, maintaining both edge lists.
func AddEdge(b, succ *Block) {
	b.Succs = append(b.Succs, succ)
	succ.Preds = append(succ.Preds, b)
	b.Fn.InvalidateCFG()
}

// RemoveValue deletes v from its block (v must have no remaining uses).
func (b *Block) RemoveValue(v *Value) {
	for i, w := range b.Values {
		if w == v {
			b.Values = append(b.Values[:i], b.Values[i+1:]...)
			return
		}
	}
}

// PredIndex returns the index of pred within b.Preds (phi argument order).
func (b *Block) PredIndex(pred *Block) int {
	for i, p := range b.Preds {
		if p == pred {
			return i
		}
	}
	return -1
}

// String renders the value for IR dumps.
func (v *Value) String() string {
	var sb strings.Builder
	if v.Type != TypeNone {
		fmt.Fprintf(&sb, "v%d:%s = ", v.ID, v.Type)
	}
	sb.WriteString(v.Op.String())
	switch v.Op {
	case OpConst:
		fmt.Fprintf(&sb, " %s", v.AuxVal.ToStringValue())
	case OpParam, OpOSRLocal:
		fmt.Fprintf(&sb, " #%d", v.AuxInt)
	case OpCmpInt, OpCmpDouble:
		fmt.Fprintf(&sb, ".%s", value.Cmp(v.AuxInt))
	case OpLoadSlot, OpStoreSlot:
		fmt.Fprintf(&sb, " [%d]", v.AuxInt)
	case OpLoadGlobal, OpStoreGlobal, OpCallRuntime:
		fmt.Fprintf(&sb, " %q", v.AuxStr)
	case OpCheckShape, OpHasShape:
		if v.Shape != nil {
			fmt.Fprintf(&sb, " shape#%d", v.Shape.ID)
		}
	case OpCallDirect, OpCheckCallee, OpHasCallee:
		if v.Callee != nil {
			fmt.Fprintf(&sb, " %s", v.Callee.Name)
		}
	case OpTransition:
		fmt.Fprintf(&sb, " %q [%d]", v.AuxStr, v.AuxInt)
		if v.Shape != nil {
			fmt.Fprintf(&sb, " shape#%d", v.Shape.ID)
		}
	}
	if v.Dispatch {
		sb.WriteString(" dispatch")
	}
	for _, a := range v.Args {
		fmt.Fprintf(&sb, " v%d", a.ID)
	}
	if v.Op.IsCheck() {
		if v.Deopt != nil {
			fmt.Fprintf(&sb, " deopt@%d", v.Deopt.PC)
		} else {
			sb.WriteString(" abort")
		}
	}
	if v.Op == OpTxBegin || v.Op == OpTxTile {
		if v.Deopt != nil {
			fmt.Fprintf(&sb, " recover@%d", v.Deopt.PC)
		}
	}
	return sb.String()
}

// String renders the whole function.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.ID)
		if len(b.Preds) > 0 {
			sb.WriteString(" <-")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " b%d", p.ID)
			}
		}
		sb.WriteString("\n")
		for _, v := range b.Values {
			fmt.Fprintf(&sb, "    %s\n", v)
		}
		switch b.Kind {
		case BlockPlain:
			if len(b.Succs) > 0 {
				fmt.Fprintf(&sb, "    -> b%d\n", b.Succs[0].ID)
			}
		case BlockIf:
			fmt.Fprintf(&sb, "    if v%d -> b%d else b%d\n", b.Control.ID, b.Succs[0].ID, b.Succs[1].ID)
		case BlockReturn:
			fmt.Fprintf(&sb, "    ret v%d\n", b.Control.ID)
		}
	}
	return sb.String()
}
