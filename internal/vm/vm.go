// Package vm is the engine facade: it owns the global object, the shape
// table, per-function profiles, and the tier-up machinery that moves hot
// functions from the Interpreter through Baseline and DFG up to FTL
// (paper Figure 2). The NoMap configurations plug in here as FTL variants.
package vm

import (
	"errors"
	"fmt"
	"slices"

	"nomap/internal/bytecode"
	"nomap/internal/frame"
	"nomap/internal/htm"
	"nomap/internal/interp"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Config selects the engine behaviour for a run.
type Config struct {
	// MaxTier caps tier-up (Table I is measured by sweeping this).
	MaxTier profile.Tier
	// Policy sets tier-up thresholds.
	Policy profile.Policy
	// Arch selects the architecture configuration for the FTL tier
	// (Base, NoMap_S, NoMap_B, NoMap, NoMap_BC, NoMap_RTM). See arch.go.
	Arch Arch
	// MaxCallDepth bounds recursion (default 2500).
	MaxCallDepth int
	// RandomSeed seeds Math.random deterministically.
	RandomSeed uint64
	// DisableIC turns off the polymorphic-inline-cache subsystem: every
	// dispatch plan is dropped at expansion time and polymorphic sites keep
	// the generic runtime path. The A/B surface for measuring what dispatch
	// trees are worth, mirroring DisableInlining.
	DisableIC bool
	// DisableInlining turns off speculative call inlining in the DFG and FTL
	// tiers (the zero value leaves it on); the benchmark harness uses it to
	// measure the inliner's contribution.
	DisableInlining bool
}

// DefaultConfig runs the full tier stack on the unmodified Base architecture.
func DefaultConfig() Config {
	return Config{
		MaxTier:      profile.TierFTL,
		Policy:       profile.DefaultPolicy(),
		Arch:         ArchBase,
		MaxCallDepth: 2500,
		RandomSeed:   0x9E3779B97F4A7C15,
	}
}

// VM is one engine instance. Not safe for concurrent use — JavaScript is
// single-threaded, which is precisely why the paper can target a lightweight
// rollback-only HTM.
type VM struct {
	cfg      Config
	shapes   *value.ShapeTable
	globals  *value.Object
	counters stats.Counters
	profiles map[*bytecode.Function]*profile.FunctionProfile
	handles  *value.Handles

	jit JITBackend

	callDepth int
	// acts holds one reusable activation per call depth: acts[d] is lent to
	// the bytecode activation running at callDepth d (RunMain's at depth 0)
	// and to the calls it makes, the way the machine lends its per-depth
	// frameBuf. Reset drops them.
	acts []*activation
	rng  uint64

	// interrupt, when non-nil, is polled at every tier boundary (the single
	// Call path). A non-nil error cancels execution: it propagates out like
	// a runtime error, unwinding every tier. The serving pool uses it for
	// per-request deadlines.
	interrupt func() error

	// natives registers every builtin function in creation order. Because
	// installBuiltins is deterministic, the i-th native of one VM is the
	// analogue of the i-th native of any other — the identity the serving
	// layer uses to relocate compiled callee references between isolates.
	natives   []*value.Function
	nativeIDs map[*value.Function]int
	// realm is the builtin realm's template, built once by New.
	realm realm

	// closures records the first function object created for each bytecode
	// function. For top-level declarations (run once at setup) this is the
	// unique instance, which is what makes compiled-code relocation between
	// isolates of the same program sound.
	closures map[*bytecode.Function]*value.Function

	// Output collects print() lines so runs are checkable.
	Output []string
}

// JITBackend executes a function in a speculative tier (DFG/FTL). It is
// implemented by the jit package and injected to keep the dependency graph
// acyclic. Execute returns handled=false to decline (e.g. unsupported
// feature), in which case the VM falls back to Baseline.
type JITBackend interface {
	Execute(vm *VM, fn *value.Function, prof *profile.FunctionProfile, tier profile.Tier, args []value.Value) (res value.Value, handled bool, err error)
	// ExecuteOSR enters optimized code mid-execution: fr is a live bytecode
	// frame stopped at a hot loop header, and the backend compiles (or
	// reuses) an OSR artifact entering at that header, binds fr's locals to
	// it, and runs it to completion. handled=false declines (unsupported
	// region, governor veto, compile failure), in which case the frame
	// continues in the bytecode tiers untouched.
	ExecuteOSR(vm *VM, fr *frame.Frame, prof *profile.FunctionProfile, tier profile.Tier) (res value.Value, handled bool, err error)
	// InTransaction reports whether the backend currently has an open
	// hardware transaction (for cycle attribution of lower-tier code
	// called from inside one).
	InTransaction() bool
}

// New creates a VM.
func New(cfg Config) *VM {
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 2500
	}
	if cfg.RandomSeed == 0 {
		cfg.RandomSeed = 0x9E3779B97F4A7C15
	}
	vm := &VM{
		cfg:       cfg,
		shapes:    value.NewShapeTable(),
		handles:   value.NewHandles(),
		profiles:  make(map[*bytecode.Function]*profile.FunctionProfile),
		nativeIDs: make(map[*value.Function]int),
		closures:  make(map[*bytecode.Function]*value.Function),
	}
	vm.installBuiltins()
	vm.Reset()
	return vm
}

// Reset returns the VM to its freshly constructed state under its original
// configuration. The shape table rewinds to the builtin realm's template,
// the global, Math and String objects and the natives' function objects are
// allocated afresh from the template, profiles, closures and output are
// emptied, the RNG is re-seeded from Config.RandomSeed and the call depth
// (bounded by Config.MaxCallDepth) is cleared. A recycled isolate calls it
// so a reused VM is indistinguishable from a new one — including the shape
// IDs a program gets and the RandomSeed and MaxCallDepth settings, which
// are part of cfg and survive verbatim.
func (vm *VM) Reset() {
	vm.handles.Reset()
	vm.shapes.Rewind()
	clear(vm.profiles)
	clear(vm.closures)
	vm.rng = vm.cfg.RandomSeed
	vm.callDepth = 0
	vm.acts = nil
	vm.counters.Reset()
	vm.Output = nil
	vm.globals = vm.realm.restore(vm.natives)
}

// SetJIT injects the speculative-tier backend.
func (vm *VM) SetJIT(j JITBackend) { vm.jit = j }

// Config returns the VM's configuration.
func (vm *VM) Config() Config { return vm.cfg }

// Counters returns the measurement sink.
func (vm *VM) Counters() *stats.Counters { return &vm.counters }

// ResetCounters zeroes measurements (after warm-up, before the measured run).
func (vm *VM) ResetCounters() { vm.counters.Reset() }

// Shapes returns the shape table.
func (vm *VM) Shapes() *value.ShapeTable { return vm.shapes }

// Handles returns the isolate's handle slab: the indirection table that lets
// NaN-boxed registers reference strings and objects by index.
func (vm *VM) Handles() *value.Handles { return vm.handles }

// Globals returns the global object.
func (vm *VM) Globals() *value.Object { return vm.globals }

// ProfileFor returns (allocating on first use) the profile of fn.
func (vm *VM) ProfileFor(fn *bytecode.Function) *profile.FunctionProfile {
	p, ok := vm.profiles[fn]
	if !ok {
		p = profile.New(fn)
		vm.profiles[fn] = p
	}
	return p
}

// SetProfile replaces fn's profile wholesale. The warm-start facility uses it
// to install a snapshot's post-warmup feedback into a fresh isolate.
func (vm *VM) SetProfile(fn *bytecode.Function, p *profile.FunctionProfile) {
	vm.profiles[fn] = p
}

// EachProfile visits every allocated function profile (iteration order is
// unspecified; callers needing determinism must sort).
func (vm *VM) EachProfile(f func(*bytecode.Function, *profile.FunctionProfile)) {
	for fn, p := range vm.profiles {
		f(fn, p)
	}
}

// SetInterrupt installs (or, with nil, removes) the tier-boundary poll used
// to cancel execution: Call checks it on entry, so a pending cancellation
// takes effect at the next tier transition rather than mid-loop.
func (vm *VM) SetInterrupt(f func() error) { vm.interrupt = f }

// NativeID returns the creation-order identity of a builtin function, which
// is stable across VMs (installBuiltins is deterministic).
func (vm *VM) NativeID(f *value.Function) (int, bool) {
	id, ok := vm.nativeIDs[f]
	return id, ok
}

// NativeByID returns the builtin with the given creation-order identity.
func (vm *VM) NativeByID(id int) *value.Function {
	if id < 0 || id >= len(vm.natives) {
		return nil
	}
	return vm.natives[id]
}

// FunctionFor returns this VM's canonical function object for a bytecode
// function: the first closure created over it (for top-level declarations,
// the only one). It returns nil when the program defining code has not run
// in this VM.
func (vm *VM) FunctionFor(code *bytecode.Function) *value.Function {
	return vm.closures[code]
}

// InTransaction reports whether a hardware transaction is currently open.
func (vm *VM) InTransaction() bool {
	return vm.jit != nil && vm.jit.InTransaction()
}

// CompileSource parses and compiles a program to its top-level function,
// including the peephole superinstruction fusion pass.
func CompileSource(src string) (*bytecode.Function, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return bytecode.Compile(prog)
}

// Run executes a complete program source and returns the value of the last
// global named "result" if defined, else undefined. Output from print() is
// collected in vm.Output.
func (vm *VM) Run(src string) (value.Value, error) {
	main, err := CompileSource(src)
	if err != nil {
		return value.Undefined(), err
	}
	return vm.RunMain(main)
}

// RunMain executes a previously compiled top-level function.
func (vm *VM) RunMain(main *bytecode.Function) (value.Value, error) {
	fr := vm.activation().enter(main, nil, nil, vm.handles)
	if _, err := interp.Exec(vm, fr, profile.TierInterp); err != nil {
		return value.Undefined(), err
	}
	if vm.globals.Has("result") {
		return vm.globals.Get("result"), nil
	}
	return value.Undefined(), nil
}

// CallGlobal invokes a global function by name (the harness entry point:
// benchmarks define a run() function called once per iteration).
func (vm *VM) CallGlobal(name string, args ...value.Value) (value.Value, error) {
	f := vm.globals.Get(name)
	if !f.IsCallable() {
		return value.Undefined(), fmt.Errorf("global %q is not a function", name)
	}
	return vm.Call(f.Object().Fn, value.Undefined(), args)
}

var errCallDepth = errors.New("maximum call depth exceeded")

// Call invokes a function through the tiering machinery. This is the single
// call path: every tier and every builtin routes function calls here.
func (vm *VM) Call(fn *value.Function, this value.Value, args []value.Value) (value.Value, error) {
	if vm.interrupt != nil {
		if err := vm.interrupt(); err != nil {
			return value.Undefined(), err
		}
	}
	if vm.callDepth >= vm.cfg.MaxCallDepth {
		return value.Undefined(), errCallDepth
	}
	vm.callDepth++
	defer func() { vm.callDepth-- }()

	if fn.IsNative() {
		if fn.Irrevocable && vm.InTransaction() {
			return value.Undefined(), htm.ErrIrrevocable
		}
		vm.counters.AddInstr(stats.NoFTL, nativeCallCost)
		vm.counters.AddCycles(nativeCallCost, vm.InTransaction())
		return fn.Native(this, args)
	}

	bcFn, ok := fn.Code.(*bytecode.Function)
	if !ok {
		return value.Undefined(), fmt.Errorf("function %q has no code", fn.Name)
	}
	prof := vm.ProfileFor(bcFn)
	prof.InvocationCount++
	tier := vm.cfg.Policy.TierFor(prof, vm.cfg.MaxTier)

	if tier >= profile.TierDFG && vm.jit != nil {
		res, handled, err := vm.jit.Execute(vm, fn, prof, tier, args)
		if handled || err != nil {
			return res, err
		}
		tier = profile.TierBaseline
	} else if tier >= profile.TierDFG {
		tier = profile.TierBaseline
	}

	a := vm.activation()
	var env *value.Environment
	if bcFn.NumCells > 0 || len(bcFn.Funcs) > 0 {
		// Cells or closures may outlive the call: the environment must too.
		env = value.NewEnvironment(fn.Env, bcFn.NumCells)
	} else {
		a.env = value.Environment{Parent: fn.Env}
		env = &a.env
	}
	return interp.Exec(vm, a.enter(bcFn, env, args, vm.handles), tier)
}

// activation is the storage of the bytecode activation running at one call
// depth: its frame, whose Locals is the reused register file, its environment
// (when no closure can capture it) and the window its own calls unbox their
// arguments into. Everything
// here is lent for the duration of one activation, so nothing may keep any
// of it after the call that lent it returns: natives copy their arguments
// out, OSR entry runs to completion inside the lending call, and deopt
// frames are materialized fresh.
type activation struct {
	fr   frame.Frame
	env  value.Environment
	args []value.Value
}

// activation returns the current call depth's activation, allocating it on
// first use.
func (vm *VM) activation() *activation {
	for len(vm.acts) <= vm.callDepth {
		vm.acts = append(vm.acts, new(activation))
	}
	return vm.acts[vm.callDepth]
}

// enter sets a's frame up in place as a fresh activation of fn at pc 0:
// arguments boxed into the parameter registers and everything else undefined
// (the zero Boxed is +0.0, so the fill is explicit).
func (a *activation) enter(fn *bytecode.Function, env *value.Environment, args []value.Value, h *value.Handles) *frame.Frame {
	regs := slices.Grow(a.fr.Locals[:0], fn.NumRegs)[:fn.NumRegs]
	n := min(fn.NumParams, len(args))
	for i, arg := range args[:n] {
		regs[i] = h.Box(arg)
	}
	for i := n; i < len(regs); i++ {
		regs[i] = value.BoxedUndefined
	}
	a.fr = frame.Frame{Fn: fn, Locals: regs, Env: env}
	return &a.fr
}

// ArgWindow lends the current depth's argument window, sized n, for one call
// made from this depth; the next call from the same depth overwrites it.
func (vm *VM) ArgWindow(n int) []value.Value {
	a := vm.activation()
	a.args = slices.Grow(a.args[:0], n)[:n]
	return a.args
}

// OSREntry is the bytecode tiers' hot-loop hook: every 64 back edges the
// executor offers its live frame here. The VM consults the tier-up policy
// with the frame's current profile; if the function has outgrown its tier,
// the frame either enters an optimized OSR artifact through the JIT backend
// (done=true: the backend ran it to completion, including any deopt-resume
// continuation) or escalates to Baseline in place so type feedback accrues
// before an optimizing OSR compile is attempted.
//
// An OSR artifact runs to function completion, so entering one forfeits any
// later mid-loop promotion: a loop that OSR-entered DFG would be stranded
// below FTL for its whole (by definition, long) remaining run. OSR entry
// therefore waits for the function's tier ceiling — the loop keeps accruing
// feedback in Baseline through the DFG window and jumps straight to the top
// tier. With MaxTier = DFG the ceiling is the DFG OSR artifact itself.
func (vm *VM) OSREntry(fr *frame.Frame, tier profile.Tier) (value.Value, bool, profile.Tier, error) {
	prof := vm.ProfileFor(fr.Fn)
	target := vm.cfg.Policy.TierFor(prof, vm.cfg.MaxTier)
	if target <= tier {
		return value.Undefined(), false, tier, nil
	}
	ceiling := vm.cfg.MaxTier
	if ceiling > profile.TierFTL {
		ceiling = profile.TierFTL
	}
	if target >= profile.TierDFG && target == ceiling && vm.jit != nil {
		res, handled, err := vm.jit.ExecuteOSR(vm, fr, prof, target)
		if handled || err != nil {
			return res, handled, tier, err
		}
	}
	// The optimizing tiers declined (or the target is Baseline): escalate
	// the running frame to Baseline without restarting it.
	if tier < profile.TierBaseline {
		tier = profile.TierBaseline
	}
	return value.Undefined(), false, tier, nil
}

// Construct implements `new fn(args)`.
func (vm *VM) Construct(fn *value.Function, args []value.Value) (value.Value, error) {
	if fn.IsNative() {
		// Builtin constructors (Array, Object) construct directly.
		return fn.Native(value.Undefined(), args)
	}
	obj := value.Obj(value.NewObject(vm.shapes, 0))
	res, err := vm.Call(fn, obj, args)
	if err != nil {
		return value.Undefined(), err
	}
	if res.IsObject() {
		return res, nil
	}
	return obj, nil
}

// MakeClosure wraps a nested bytecode function with its defining environment.
func (vm *VM) MakeClosure(fn *bytecode.Function, env *value.Environment) value.Value {
	f := &value.Function{
		Name:        fn.Name,
		NumParams:   fn.NumParams,
		Code:        fn,
		Env:         env,
		UsesClosure: fn.UsesClosure,
	}
	if _, ok := vm.closures[fn]; !ok {
		vm.closures[fn] = f
	}
	return value.Obj(value.NewFunctionObject(vm.shapes, f))
}

// nativeCallCost approximates the C++ runtime entry/exit sequence.
const nativeCallCost = 20

// Interface conformance: the VM is the Host for the bytecode tiers.
var _ interp.Host = (*VM)(nil)
