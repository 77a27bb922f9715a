package codecache

import (
	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/value"
)

// CalleeKind discriminates the portable identities a compiled direct-call
// target can have.
type CalleeKind uint8

const (
	// CalleeNone marks an absent or unrepresentable reference.
	CalleeNone CalleeKind = iota
	// CalleeNative identifies a builtin by creation order.
	CalleeNative
	// CalleeCode identifies a user function by its shared bytecode: the
	// target isolate's canonical closure over the same *bytecode.Function.
	CalleeCode
)

// CalleeRef names a function portably across isolates of one program.
type CalleeRef struct {
	Kind   CalleeKind
	Native int                // creation-order id when Kind == CalleeNative
	Code   *bytecode.Function // shared bytecode when Kind == CalleeCode
}

// Manifest records, by value ID, every isolate-bound pointer embedded in a
// donor IR graph, in a form replayable against any isolate of the program.
type Manifest struct {
	// Shapes maps value ID → hidden-class transition path from the root.
	Shapes map[int][]string
	// Callees maps value ID → portable callee identity.
	Callees map[int]CalleeRef
	// Inlines names the function object of each inline frame the inliner
	// recorded on the donor (indexed like ir.Func.Inlines); deopt inside
	// flattened code resolves callee environments through these.
	Inlines []CalleeRef
}

// Artifact is one cached compilation: the immutable donor graph, the tier it
// was compiled at, and its relocation manifest. None is ever mutated after
// construction; binding lowers the donor afresh for each isolate.
type Artifact struct {
	donor *ir.Func
	tier  profile.Tier
	man   *Manifest
}

// calleeRef names fn portably in realm; its Kind is CalleeNone when fn is
// nil or has no portable name.
func calleeRef(fn *value.Function, realm Realm) CalleeRef {
	if fn == nil {
		return CalleeRef{}
	}
	if id, ok := realm.NativeID(fn); ok {
		return CalleeRef{Kind: CalleeNative, Native: id}
	}
	code, ok := fn.Code.(*bytecode.Function)
	if !ok {
		return CalleeRef{}
	}
	// Only the canonical (first-created) closure is portable: a later
	// closure over the same code may capture a different environment, and
	// the manifest cannot name environments.
	if realm.FunctionFor(code) != fn {
		return CalleeRef{}
	}
	return CalleeRef{Kind: CalleeCode, Code: code}
}

// resolveCallee is the inverse of calleeRef in the target isolate.
func resolveCallee(ref CalleeRef, realm Realm) *value.Function {
	switch ref.Kind {
	case CalleeNative:
		return realm.NativeByID(ref.Native)
	case CalleeCode:
		return realm.FunctionFor(ref.Code)
	}
	return nil
}

// shapePath returns s's transition path and verifies it is faithful in the
// donor realm (Replay must reproduce the exact pointer; a shape outside the
// transition tree — there are none today — would fail this and render the
// artifact uncacheable rather than silently wrong).
func shapePath(s *value.Shape, realm Realm) ([]string, bool) {
	if !realm.Shapes().Holds(s) {
		return nil, false
	}
	return s.Path(), true
}

// Extract builds the relocation manifest for a freshly compiled donor graph,
// or reports that the function is uncacheable (some embedded reference has
// no portable name). It visits block values plus everything reachable
// through args, controls, and stack maps (orphans included) — a superset of
// the values a lowered program executes — so Bind never meets a reference
// the manifest is silent about.
// A false return is always safe: the caller simply keeps per-isolate
// compilation for that key.
func Extract(f *ir.Func, realm Realm) (*Manifest, bool) {
	man := &Manifest{
		Shapes:  make(map[int][]string),
		Callees: make(map[int]CalleeRef),
	}
	seen := make(map[*ir.Value]bool)
	ok := true
	var visit func(v *ir.Value)
	visit = func(v *ir.Value) {
		if v == nil || seen[v] || !ok {
			return
		}
		seen[v] = true
		if v.Shape != nil {
			path, pok := shapePath(v.Shape, realm)
			if !pok {
				ok = false
				return
			}
			man.Shapes[v.ID] = path
		}
		if v.Callee != nil {
			ref := calleeRef(v.Callee, realm)
			if ref.Kind == CalleeNone {
				ok = false
				return
			}
			man.Callees[v.ID] = ref
		}
		// A constant holding a heap reference (object/function) would
		// smuggle donor heap into another isolate; no pass materialises
		// such constants today, but refuse defensively.
		if v.Op == ir.OpConst && v.AuxVal.IsObject() {
			ok = false
			return
		}
		// An unexpanded dispatch plan embeds donor shape and callee pointers
		// outside the manifest's reach. ExpandDispatch clears every plan in
		// both tiers, so this only fires if a pipeline change leaks one.
		if v.Plan != nil {
			ok = false
			return
		}
		for _, a := range v.Args {
			visit(a)
		}
		for sm := v.Deopt; sm != nil; sm = sm.Caller {
			// Inline-frame caller chains embed every logical frame's state.
			for _, e := range sm.Entries {
				visit(e.Val)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			visit(v)
		}
		visit(b.Control)
		if b.EntryState != nil {
			for _, e := range b.EntryState.Entries {
				visit(e.Val)
			}
		}
	}
	for _, inf := range f.Inlines {
		ref := calleeRef(inf.Callee, realm)
		if ref.Kind == CalleeNone {
			return nil, false
		}
		man.Inlines = append(man.Inlines, ref)
	}
	if !ok {
		return nil, false
	}
	return man, true
}

// Bind lowers the artifact for realm: the shared donor graph, never
// modified, becomes the isolate's own flat program, with every manifest
// reference — shapes, callees and inline-frame callees — resolved straight
// into it. It fails (false) only when the target isolate lacks a referenced
// function — e.g. the program's setup has not run — in which case the caller
// compiles locally. Shapes always resolve: Replay creates missing
// transition-tree nodes, and a shape that the isolate's objects never reach
// simply means the guard deopts, which is the same outcome a locally
// compiled stale guard would have.
func (a *Artifact) Bind(realm Realm) (machine.Program, bool) {
	// Extract visits every value the program executes, so each reference
	// the lowering carries has a manifest entry; a miss (nil) means the
	// artifact predates a traversal change, and the bind is refused.
	shapes := realm.Shapes()
	p := machine.Lower(a.donor, a.tier)
	ok := p.Relocate(
		func(id int) *value.Shape {
			if path, ok := a.man.Shapes[id]; ok {
				return shapes.Replay(path)
			}
			return nil
		},
		func(id int) *value.Function { return resolveCallee(a.man.Callees[id], realm) },
		func(i int) *value.Function { return resolveCallee(a.man.Inlines[i], realm) },
	)
	return p, ok
}
