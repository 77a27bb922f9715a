package ir

// Forwarding is the one way a pass replaces a value. Forward records that
// every use of old now reads new; Resolve reads through what has been
// recorded; ApplyForwarding rewrites every argument list, block control and
// stack map in one walk. A pass that forwards applies before it returns, so
// the next pass — and Verify — never sees a forwarded value.
//
// Between Forward and ApplyForwarding, arguments, controls and stack-map
// entries may still name forwarded values: a pass that reads them to decide
// something reads them through Resolve.

// Forward records that every use of old now reads new. new may be forwarded
// itself, before or after this call; Resolve follows the chain. Forwarding
// old to a value that resolves to old is a no-op, as replacing a value with
// itself would be.
func (f *Func) Forward(old, new *Value) {
	new = f.Resolve(new)
	if new == old {
		return
	}
	if old.ID >= len(f.fwd) {
		// Sized for every value now in f; values made after this grow it.
		f.fwd = append(f.fwd, make([]*Value, f.nextValueID-len(f.fwd))...)
	}
	f.fwd[old.ID] = new
}

// Resolve returns the value that replaces v, following chains, or v itself.
func (f *Func) Resolve(v *Value) *Value {
	for v != nil && v.ID < len(f.fwd) && f.fwd[v.ID] != nil {
		v = f.fwd[v.ID]
	}
	return v
}

// ResolveArgs points v's arguments at the values that replace them.
func (f *Func) ResolveArgs(v *Value) {
	for i, a := range v.Args {
		v.Args[i] = f.Resolve(a)
	}
}

// ApplyForwarding rewrites every use of a forwarded value in f — arguments,
// block controls, and Deopt and EntryState maps with their inline Caller
// chains — and empties the table. It walks f only if something was
// forwarded since the last apply.
func (f *Func) ApplyForwarding() {
	if len(f.fwd) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			f.ResolveArgs(v)
			f.resolveMap(v.Deopt)
		}
		b.Control = f.Resolve(b.Control)
		f.resolveMap(b.EntryState)
	}
	// The next Forward zeroes the storage it reuses.
	f.fwd = f.fwd[:0]
}

// resolveMap resolves the entries of sm and its inline Caller chain. Chained
// maps can be shared between deopt points; resolving is idempotent, so a
// shared map is simply visited again.
func (f *Func) resolveMap(sm *StackMap) {
	if skipMapForward {
		return
	}
	for ; sm != nil; sm = sm.Caller {
		for i, e := range sm.Entries {
			sm.Entries[i].Val = f.Resolve(e.Val)
		}
	}
}

// skipMapForward is set only by tests (export_test.go): it plants a bug in
// ApplyForwarding, stack maps left pointing at forwarded values, for Verify
// to catch.
var skipMapForward bool
