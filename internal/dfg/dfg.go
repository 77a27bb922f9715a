// Package dfg is the third compiler tier (paper Figure 2): it builds
// speculative SSA from Baseline profiles and runs a light cleanup pipeline.
// Compared with FTL it lacks the LLVM-grade pass pipeline and instruction
// selection, which the machine models with higher per-op weights.
package dfg

import (
	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/opt"
	"nomap/internal/profile"
)

// Compile builds DFG-tier code for fn. osrPC selects the entry: -1 is the
// invocation entry, anything else the loop header an OSR artifact enters at,
// with live state bound from the OSR frame's locals. profiles is the
// callee-profile resolver steering speculative call inlining (nil disables
// it). demote, when non-nil, selects dispatch sites whose plans are dropped
// to the generic path (the JIT threads the VM's DisableIC switch through
// here; the governor's demote set only applies at the FTL tier).
func Compile(fn *bytecode.Function, prof *profile.FunctionProfile, osrPC int, profiles func(*bytecode.Function) *profile.FunctionProfile, demote func(pc int, path string) bool) (*ir.Func, error) {
	var f *ir.Func
	var err error
	if osrPC >= 0 {
		f, err = ir.BuildOSR(fn, prof, osrPC)
	} else {
		f, err = ir.Build(fn, prof)
	}
	if err != nil {
		return nil, err
	}
	// Lower polymorphic dispatch plans before everything else. The DFG tier
	// has no governor demote set of its own (a megamorphic site never grows
	// a plan, and persistent dispatch misses surface after promotion to
	// FTL); demote is only ever the VM-level DisableIC switch here.
	ir.ExpandDispatch(f, demote)
	if profiles != nil {
		// Flatten monomorphic direct calls before the cleanup passes so the
		// check-removal phases see across former call boundaries.
		ir.InlineCalls(f, ir.DefaultInlineOptions(profiles))
	}
	// The DFG tier runs local cleanups plus its check-removal phases:
	// TypeCheckHoisting (modelled directly) and IntegerCheckCombining
	// (modelled by the builder's block-local fact cache plus GVN) — both
	// limited by SMPs, as the paper observes (§III-A1).
	opt.HoistTypeChecks(f)
	opt.GVN(f)
	opt.DCE(f)
	return f, nil
}
