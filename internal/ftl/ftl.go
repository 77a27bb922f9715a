// Package ftl holds the pipeline of both optimizing tiers (paper Figure 2):
// speculative SSA from Baseline profiles, then one table of passes. The FTL
// tier (Compile) runs the full "-O2-grade" pipeline and — under the NoMap
// configurations — the transaction formation and check optimizations of the
// paper (§IV). Pass order follows the paper: the transformation runs before
// the optimization passes so that every pass sees aborts instead of SMPs
// (§IV-B). The DFG tier (CompileDFG) runs a lighter subset of the same rows
// and forms no transactions; the machine models its lack of the LLVM-grade
// backend with higher per-op weights.
package ftl

import (
	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ir"
	"nomap/internal/opt"
	"nomap/internal/profile"
)

// Options selects the architecture-dependent parts of the pipeline
// (Table II configurations) and the inputs both tiers share.
type Options struct {
	// Transactions enables NoMap's transaction formation at TxLevel.
	Transactions bool
	TxLevel      core.TxLevel
	// CombineBounds enables bounds-check hoisting/sinking (NoMap_B).
	CombineBounds bool
	// RemoveOverflow enables SOF-based overflow-check removal (NoMap).
	RemoveOverflow bool
	// RemoveAll removes every in-transaction check (NoMap_BC).
	RemoveAll bool
	// KeepSMP lists check sites whose Stack Map Points survive transaction
	// formation (the governor's surgical SMP restoration). A non-empty set
	// disables the deferred-detection optimizations (bounds combining,
	// remove-all) for this function: a kept-SMP failure commits the
	// transaction before deopting, which is only sound when every committed
	// write was validated at the site that produced it.
	KeepSMP core.KeepSet
	// PassHook, when non-nil, observes the function after IR construction
	// and after every pipeline pass (the oracle runs ir.Verify here to
	// localize which pass broke an invariant); CompileDFG calls it once, on
	// the finished function.
	PassHook func(pass string, f *ir.Func)
	// Inline enables speculative flattening of monomorphic direct-call sites
	// into the caller's IR (multi-depth, with inline-frame stack maps). It
	// requires Profiles to resolve callee feedback; without it the pass is
	// skipped.
	Inline bool
	// Profiles resolves the Baseline profile of a callee the inliner wants to
	// flatten (the VM's ProfileFor, threaded through the JIT driver).
	Profiles func(*bytecode.Function) *profile.FunctionProfile
	// Demote reports dispatch sites the governor demoted to the generic path
	// (megamorphic storms past the dispatch-miss budget): their plans are
	// dropped at expansion time and the generic placeholder call stays. Nil
	// expands every eligible plan.
	Demote func(pc int, path string) bool
	// OSR requests an OSR-entry artifact entering at loop header OSREntryPC
	// instead of the invocation entry. The artifact's live state comes from
	// OpOSRLocal values bound at machine.EnterAt; transaction formation
	// places TxBegin in the synthetic entry block (the header's unique
	// out-of-loop predecessor), so the loop transaction begins at the OSR
	// entry under the same TxLevel rules as invocation-entry code.
	OSR        bool
	OSREntryPC int
}

// pass is one row of the pipeline: the name the pass hook reports, whether
// the DFG tier runs it too, whether the options enable it (nil: always), and
// the pass itself. Options travel by value, so the loop allocates nothing.
type pass struct {
	name string
	dfg  bool
	on   func(Options) bool
	run  func(*ir.Func, Options)
}

// passes is the pipeline, in order. FTL runs every enabled row. The DFG tier
// runs the rows marked dfg: no transactions, and check-removal phases that
// SMPs limit (§III-A1): TypeCheckHoisting, and IntegerCheckCombining as the
// builder's block-local fact cache plus GVN.
var passes = []pass{
	// Polymorphic dispatch trees first: plan placeholders lower to
	// shape-guarded chains whose per-way callee guards the inliner treats like
	// monomorphic sites, so a polymorphic call's top-K receivers inline.
	{"expand-dispatch", true, nil, func(f *ir.Func, o Options) { ir.ExpandDispatch(f, o.Demote) }},
	// Speculative call inlining next: flattened callees expose their checks
	// to every later pass, which then sees across the former call boundary.
	{"inline", true, func(o Options) bool { return o.Inline && o.Profiles != nil },
		func(f *ir.Func, o Options) { ir.InlineCalls(f, ir.DefaultInlineOptions(o.Profiles)) }},
	// JavaScriptCore's own check-removal phases run first (they exist in
	// every configuration; SMPs limit them, paper §III-A1)...
	{"hoist-type-checks", true, nil, plain(opt.HoistTypeChecks)},
	// ...then NoMap's transformation, before the main passes (§IV-B)...
	{"form-transactions", false, func(o Options) bool { return o.Transactions && o.TxLevel != core.TxOff },
		func(f *ir.Func, o Options) { core.FormTransactionsKeeping(f, o.TxLevel, o.KeepSMP) }},
	// ...then the "-O2-grade" pipeline, now free of in-transaction SMPs.
	{"gvn", true, nil, plain(opt.GVN)},
	{"licm", false, nil, plain(opt.LICM)},
	{"promote-loop-stores", false, nil, plain(opt.PromoteLoopStores)},
	{"combine-bounds-checks", false, func(o Options) bool { return o.CombineBounds && deferred(o) },
		func(f *ir.Func, _ Options) { core.CombineBoundsChecks(f) }},
	{"remove-overflow-checks", false, func(o Options) bool { return o.RemoveOverflow },
		func(f *ir.Func, _ Options) { core.RemoveOverflowChecks(f) }},
	{"remove-all-checks", false, func(o Options) bool { return o.RemoveAll && deferred(o) },
		func(f *ir.Func, _ Options) { core.RemoveAllChecks(f) }},
	{"gvn2", false, nil, plain(opt.GVN)},
	{"dce", true, nil, plain(opt.DCE)},
	// Block layout cleanup last: LLVM-quality codegen merges straight-line
	// chains, which the DFG tier's simpler backend does not.
	{"simplify-cfg", false, nil, plain(opt.SimplifyCFG)},
}

// plain adapts a pass that reads no option.
func plain(run func(*ir.Func)) func(*ir.Func, Options) {
	return func(f *ir.Func, _ Options) { run(f) }
}

// deferred reports whether deferred detection (mid-loop garbage validated
// only at the loop exit) is sound: a restored SMP commits its transaction on
// failure, which would expose it, so functions with kept sites go without.
func deferred(o Options) bool { return len(o.KeepSMP) == 0 }

// Compile builds FTL-tier code for fn under the given configuration. The
// pass hook sees the function after "build" and after every pass that runs.
func Compile(fn *bytecode.Function, prof *profile.FunctionProfile, opts Options) (*ir.Func, error) {
	return run(fn, prof, opts, false)
}

// CompileDFG builds DFG-tier code for fn: only the rows marked dfg. The pass
// hook sees the finished function once, as "dfg" ("dfg-osr" for OSR entry).
func CompileDFG(fn *bytecode.Function, prof *profile.FunctionProfile, opts Options) (*ir.Func, error) {
	hook := opts.PassHook
	opts.PassHook = nil
	f, err := run(fn, prof, opts, true)
	if err == nil && hook != nil {
		name := "dfg"
		if opts.OSR {
			name = "dfg-osr"
		}
		hook(name, f)
	}
	return f, err
}

// run builds fn's IR and runs the enabled rows of passes on it, only the DFG
// tier's when dfgOnly is set. A pass that edits the CFG by hand drops the
// cached analyses (ir.Func.InvalidateCFG); the ir mutators drop them
// themselves.
func run(fn *bytecode.Function, prof *profile.FunctionProfile, opts Options, dfgOnly bool) (*ir.Func, error) {
	var f *ir.Func
	var err error
	if opts.OSR {
		f, err = ir.BuildOSR(fn, prof, opts.OSREntryPC)
	} else {
		f, err = ir.Build(fn, prof)
	}
	if err != nil {
		return nil, err
	}
	if opts.PassHook != nil {
		opts.PassHook("build", f)
	}
	for _, p := range passes {
		if dfgOnly && !p.dfg || p.on != nil && !p.on(opts) {
			continue
		}
		p.run(f, opts)
		if opts.PassHook != nil {
			opts.PassHook(p.name, f)
		}
	}
	// The passes share f's dominator tree and loop forest; the finished
	// function, which the code cache may share, keeps neither.
	f.ReleaseAnalyses()
	return f, nil
}
