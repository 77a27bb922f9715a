package opt

import (
	"fmt"

	"nomap/internal/ir"
)

// KeyObservation is one value GVN keyed: the struct key it used and the
// string key GVN used to build with fmt, both taken from the same state.
type KeyObservation struct {
	// Run identifies the GVN run; keys only compare within one run.
	Run   any
	Value *ir.Value
	// Key is the comparable struct key; OK reports whether v was keyed.
	Key any
	OK  bool
	// Oracle and OracleOK are the string key's verdict on the same value.
	Oracle   string
	OracleOK bool
}

// WatchKeys reports every key GVN computes until the returned restore is
// called.
func WatchKeys(observe func(KeyObservation)) (restore func()) {
	onKeyHook = func(g *gvn, v *ir.Value, k gvnKey, ok bool) {
		s, sok := stringKey(g, v)
		observe(KeyObservation{Run: g, Value: v, Key: k, OK: ok, Oracle: s, OracleOK: sok})
	}
	return func() { onKeyHook = nil }
}

// stringKey is GVN's key as it was built with fmt and string concatenation,
// kept as the oracle the struct key must partition values like. Arguments
// read through the function's forwarding table.
func stringKey(g *gvn, v *ir.Value) (string, bool) {
	pure := v.Op.IsPure() && v.Op != ir.OpPhi && v.Op != ir.OpParam
	load := v.Op.ReadsMemory() && !v.Op.WritesMemory() && !v.Op.IsCall()
	check := v.Op.IsCheck()
	if !pure && !load && !check {
		return "", false
	}
	if check && v.Deopt != nil {
		return "", false
	}
	k := fmt.Sprintf("%d|%d|%q|%g", v.Op, v.AuxInt, v.AuxStr, v.AuxFloat)
	if v.Op == ir.OpConst {
		k += "|" + v.AuxVal.ToStringValue() + "|" + v.AuxVal.Kind().String()
	}
	if v.Shape != nil {
		k += fmt.Sprintf("|s%d", v.Shape.ID)
	}
	if v.Callee != nil {
		k += fmt.Sprintf("|c%p", v.Callee)
	}
	for _, a := range v.Args {
		k += fmt.Sprintf("|v%d", v.Block.Fn.Resolve(a).ID)
	}
	for _, rk := range readKeys(v) {
		k += fmt.Sprintf("|g%d.%d.%s=%d.%d", rk.kind, rk.off, rk.name, g.gen[rk], g.allGen)
	}
	return k, true
}
