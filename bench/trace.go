package main

import (
	"time"

	"nomap/internal/frame"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// tracer times the engine's layers from outside, through the seams the
// engine already has: it wraps the vm.JITBackend a VM calls into, installs
// a pass hook on the jit.Backend, a machine tracer and an HTM capacity
// probe. Nothing here changes what the engine computes; the run checks that
// by comparing modeled cycles between the traced and untraced windows.
type tracer struct {
	rec *recorder

	// depth counts open Execute/ExecuteOSR calls. vm.Call re-enters the
	// backend for every callee of compiled code, so only the outermost call
	// becomes a span; the rest are counted.
	depth     int
	execCalls int64
	osrCalls  int64

	// mark is where the next pass span starts: the entry of the innermost
	// Execute, then the end of each pass hook.
	mark time.Time

	compiles    [2]int64 // DFG, FTL
	compileNs   [2]int64
	ftlStart    time.Time
	valuesBuilt int64 // IR values after ir.Build
	valuesIn    int64 // entering the pass pipeline (after dispatch expansion and inlining)
	valuesOut   int64 // leaving it
	checksIn    int64 // checks standing before the first core pass
	checksCut   int64 // checks the core passes removed or made free
	txRegions   int64
	last        irCount

	recompiles int64
	readLines  int64
	writeLines int64
}

const (
	tierDFG = 0
	tierFTL = 1
)

func newTracer(t0 time.Time) *tracer { return &tracer{rec: newRecorder(t0)} }

// passSpans maps the pass names the compilers report to span names, which
// carry the layer (package) as their prefix.
var passSpans = map[string]string{
	"build":                  "ir.build",
	"expand-dispatch":        "ir.expand_dispatch",
	"inline":                 "ir.inline",
	"hoist-type-checks":      "opt.hoist_type_checks",
	"form-transactions":      "core.form_transactions",
	"gvn":                    "opt.gvn",
	"licm":                   "opt.licm",
	"promote-loop-stores":    "opt.promote_loop_stores",
	"combine-bounds-checks":  "core.combine_bounds",
	"remove-overflow-checks": "core.remove_overflow",
	"remove-all-checks":      "core.remove_all",
	"gvn2":                   "opt.gvn",
	"dce":                    "opt.dce",
	"simplify-cfg":           "opt.simplify_cfg",
	"dfg":                    "dfg.compile",
	"dfg-osr":                "dfg.compile",
}

type irCount struct{ values, checks, txBegins int64 }

func countIR(f *ir.Func) irCount {
	var c irCount
	for _, b := range f.Blocks {
		c.values += int64(len(b.Values))
		for _, v := range b.Values {
			if v.Op.IsCheck() && !v.Free {
				c.checks++
			}
			if v.Op == ir.OpTxBegin {
				c.txBegins++
			}
		}
	}
	return c
}

// onPass is the jit.Backend pass hook: it closes the span of the pass that
// just ran and sizes the IR it left.
func (t *tracer) onPass(pass string, f *ir.Func) {
	now := time.Now()
	name, ok := passSpans[pass]
	if !ok {
		name = "jit." + pass
	}
	t.rec.leaf(name, t.mark, now)
	c := countIR(f)
	switch pass {
	case "dfg", "dfg-osr":
		t.compiles[tierDFG]++
		t.compileNs[tierDFG] += now.Sub(t.mark).Nanoseconds()
	case "build":
		t.ftlStart = t.mark
		t.valuesBuilt += c.values
		t.valuesIn += c.values
	case "expand-dispatch", "inline":
		t.valuesIn += c.values - t.last.values
	case "hoist-type-checks":
		t.checksIn += c.checks
	case "form-transactions":
		t.txRegions += c.txBegins
		t.checksCut += t.last.checks - c.checks
	case "combine-bounds-checks", "remove-overflow-checks", "remove-all-checks":
		t.checksCut += t.last.checks - c.checks
	case "simplify-cfg":
		t.valuesOut += c.values
		t.compiles[tierFTL]++
		t.compileNs[tierFTL] += now.Sub(t.ftlStart).Nanoseconds()
	}
	t.last = c
	// The counting above is the benchmark's own work: start the next pass
	// span after it.
	t.mark = time.Now()
}

// onEvent is the machine tracer: it counts compilations of a function the
// VM had already compiled for that tier (the governor's recompiles).
func (t *tracer) onEvent(seen map[string]bool) machine.Tracer {
	return func(e machine.Event) {
		if e.Kind != machine.EventCompile {
			return
		}
		key := e.Fn + "@" + e.Tier.String()
		if seen[key] {
			t.recompiles++
		}
		seen[key] = true
	}
}

// attach installs the tracer on one engine.
func (t *tracer) attach(v *vm.VM, b *jit.Backend) {
	v.SetJIT(&timedJIT{inner: b, t: t})
	b.SetPassHook(t.onPass)
	b.Machine().SetTracer(t.onEvent(make(map[string]bool)))
	b.Machine().HTM.SetCapacityProbe(func(write bool, _ uint64) bool {
		if write {
			t.writeLines++
		} else {
			t.readLines++
		}
		return false
	})
}

// detach restores the engine's own backend and clears the hooks.
func detach(v *vm.VM, b *jit.Backend) {
	v.SetJIT(b)
	b.SetPassHook(nil)
	b.Machine().SetTracer(nil)
	b.Machine().HTM.SetCapacityProbe(nil)
}

// timedJIT is the vm.JITBackend the traced VM calls: it times the outermost
// entry into compiled code and forwards everything to the real backend.
type timedJIT struct {
	inner *jit.Backend
	t     *tracer
}

func (j *timedJIT) enter() {
	t := j.t
	now := time.Now()
	t.mark = now
	if t.depth == 0 {
		t.rec.begin("jit.execute", now)
	}
	t.depth++
}

func (j *timedJIT) leave() {
	t := j.t
	t.depth--
	if t.depth == 0 {
		t.rec.end(time.Now())
	}
}

func (j *timedJIT) Execute(v *vm.VM, fn *value.Function, prof *profile.FunctionProfile, tier profile.Tier, args []value.Value) (value.Value, bool, error) {
	j.t.execCalls++
	j.enter()
	res, handled, err := j.inner.Execute(v, fn, prof, tier, args)
	j.leave()
	return res, handled, err
}

func (j *timedJIT) ExecuteOSR(v *vm.VM, fr *frame.Frame, prof *profile.FunctionProfile, tier profile.Tier) (value.Value, bool, error) {
	j.t.osrCalls++
	j.enter()
	res, handled, err := j.inner.ExecuteOSR(v, fr, prof, tier)
	j.leave()
	return res, handled, err
}

func (j *timedJIT) InTransaction() bool { return j.inner.InTransaction() }
