// Package nomap is a Go reproduction of "NoMap: Speeding-Up JavaScript Using
// Hardware Transactional Memory" (HPCA 2019): a JavaScript-subset engine
// with a real multi-tier JIT (Interpreter → Baseline → DFG → FTL), simulated
// caches and hardware transactional memory, and the NoMap transformation —
// transactions around hot loops, Stack Map Points converted to aborts, and
// transaction-enabled check optimizations.
//
// Quick start:
//
//	eng := nomap.NewEngine(nomap.Options{Arch: nomap.ArchNoMap})
//	res, err := eng.Run(`
//	    function sum(a, n) { var s = 0; for (var i = 0; i < n; i++) s += a[i]; return s; }
//	    var arr = []; for (var i = 0; i < 1000; i++) arr[i] = i;
//	    var result = sum(arr, 1000);
//	`)
//
// Measurements (dynamic instructions by class, cycles, checks by category,
// transaction statistics) are available via Engine.Stats after a run.
package nomap

import (
	"fmt"

	"nomap/internal/bytecode"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// Arch selects the evaluated architecture configuration (paper Table II).
type Arch = vm.Arch

// The six configurations of the paper's evaluation.
const (
	ArchBase     = vm.ArchBase
	ArchNoMapS   = vm.ArchNoMapS
	ArchNoMapB   = vm.ArchNoMapB
	ArchNoMap    = vm.ArchNoMap
	ArchNoMapBC  = vm.ArchNoMapBC
	ArchNoMapRTM = vm.ArchNoMapRTM
)

// AllArchs lists the six configurations in the paper's bar order.
var AllArchs = vm.AllArchs

// Tier identifies a compiler tier.
type Tier = profile.Tier

// Tier values (paper Figure 2).
const (
	TierInterp   = profile.TierInterp
	TierBaseline = profile.TierBaseline
	TierDFG      = profile.TierDFG
	TierFTL      = profile.TierFTL
)

// Options configures an Engine.
type Options struct {
	// Arch is the architecture configuration (default ArchBase).
	Arch Arch
	// MaxTier caps tier-up (default TierFTL).
	MaxTier Tier
	// Seed seeds Math.random deterministically (0 = default seed).
	Seed uint64
	// DisableIC turns off the polymorphic-inline-cache subsystem: dispatch
	// sites keep their generic runtime path. The A/B surface for measuring
	// what shape-guarded dispatch trees are worth.
	DisableIC bool
}

// Value is a JavaScript value produced by the engine.
type Value = value.Value

// Stats is the measurement counter set of a run.
type Stats = stats.Counters

// Engine is one engine instance. Engines are not safe for concurrent use
// (JavaScript is single-threaded; that is what makes rollback-only HTM
// applicable, paper §IV-A).
type Engine struct {
	vm  *vm.VM
	jit *jit.Backend
}

// NewEngine creates an engine.
func NewEngine(opts Options) *Engine {
	cfg := vm.DefaultConfig()
	cfg.Arch = opts.Arch
	if opts.MaxTier != 0 {
		cfg.MaxTier = opts.MaxTier
	}
	if opts.Seed != 0 {
		cfg.RandomSeed = opts.Seed
	}
	cfg.DisableIC = opts.DisableIC
	v := vm.New(cfg)
	return &Engine{vm: v, jit: jit.Attach(v)}
}

// Run parses, compiles, and executes a program. It returns the value of the
// global variable "result" if the program defines one.
func (e *Engine) Run(src string) (Value, error) {
	return e.vm.Run(src)
}

// Compile parses and compiles a program for repeated execution.
func (e *Engine) Compile(src string) (*Program, error) {
	main, err := vm.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return &Program{main: main}, nil
}

// Program is a compiled program.
type Program struct {
	main *bytecode.Function
}

// RunProgram executes a previously compiled program.
func (e *Engine) RunProgram(p *Program) (Value, error) {
	return e.vm.RunMain(p.main)
}

// Call invokes a global function by name. Arguments are converted with
// ToValue.
func (e *Engine) Call(name string, args ...any) (Value, error) {
	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := ToValue(a)
		if err != nil {
			return value.Undefined(), err
		}
		vals[i] = v
	}
	return e.vm.CallGlobal(name, vals...)
}

// Global reads a global variable.
func (e *Engine) Global(name string) Value { return e.vm.Globals().Get(name) }

// Output returns the lines printed by print() so far.
func (e *Engine) Output() []string { return e.vm.Output }

// Stats returns the engine's measurement counters.
func (e *Engine) Stats() *Stats { return e.vm.Counters() }

// TraceEvent is one execution event: transaction begin/commit/tile/abort,
// deoptimization, or compilation.
type TraceEvent = machine.Event

// SetTracer installs a callback receiving execution events (nil clears it).
// Useful for understanding when the engine forms, commits, and aborts
// transactions, and when functions move between tiers.
func (e *Engine) SetTracer(t func(TraceEvent)) { e.jit.Machine().SetTracer(t) }

// ResetStats zeroes the counters (call between warm-up and measurement).
func (e *Engine) ResetStats() { e.vm.ResetCounters() }

// ToValue converts a Go value (nil, bool, int, float64, string) to an engine
// value.
func ToValue(a any) (Value, error) {
	switch x := a.(type) {
	case nil:
		return value.Null(), nil
	case bool:
		return value.Boolean(x), nil
	case int:
		return value.Number(float64(x)), nil
	case int32:
		return value.Int(x), nil
	case int64:
		return value.Number(float64(x)), nil
	case float64:
		return value.Number(x), nil
	case string:
		return value.Str(x), nil
	case value.Value:
		return x, nil
	}
	return value.Undefined(), fmt.Errorf("nomap: cannot convert %T to a JS value", a)
}
