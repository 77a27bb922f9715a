// Package profile holds the runtime feedback the Baseline tier gathers and
// the speculative tiers consume: per-site type feedback, inline caches, and
// the invocation counters that drive tier-up (paper §II-A: "advanced JIT
// compilers perform extensive profiling to detect the common case").
package profile

import (
	"strings"

	"nomap/internal/bytecode"
	"nomap/internal/value"
)

// Tier identifies a compiler tier (paper Figure 2).
type Tier uint8

const (
	TierInterp Tier = iota
	TierBaseline
	TierDFG
	TierFTL
)

// String returns the JavaScriptCore name of the tier.
func (t Tier) String() string {
	switch t {
	case TierInterp:
		return "Interpreter"
	case TierBaseline:
		return "Baseline"
	case TierDFG:
		return "DFG"
	case TierFTL:
		return "FTL"
	}
	return "Tier(?)"
}

// ParseTier resolves a tier by name, case-insensitively ("FTL", "ftl"), with
// "interp" accepted for the interpreter.
func ParseTier(name string) (Tier, bool) {
	if strings.EqualFold(name, "interp") {
		return TierInterp, true
	}
	for t := TierInterp; t <= TierFTL; t++ {
		if strings.EqualFold(t.String(), name) {
			return t, true
		}
	}
	return 0, false
}

// ArithFeedback records the operand representations seen at an arithmetic or
// comparison bytecode site.
type ArithFeedback struct {
	SawInt32  bool
	SawDouble bool
	SawString bool
	SawOther  bool
	// SawOverflow records that the int32 fast path overflowed here (the
	// result escaped to a double although both operands were int32). The
	// speculative tiers then compile the site with double arithmetic
	// instead of deopt-looping on the overflow check — JavaScriptCore's
	// exit-site profiling does the same.
	SawOverflow bool
	Count       int64
}

// Observe merges one executed operand pair into the feedback.
func (f *ArithFeedback) Observe(a, b value.Value) {
	f.observeOne(a)
	f.observeOne(b)
	f.Count++
}

func (f *ArithFeedback) observeOne(v value.Value) {
	switch v.Kind() {
	case value.KindInt32:
		f.SawInt32 = true
	case value.KindDouble:
		f.SawDouble = true
	case value.KindString:
		f.SawString = true
	default:
		f.SawOther = true
	}
}

// IntOnly reports that both operands were always int32 — the precondition
// for the FTL tier to emit overflow-checked integer arithmetic. Sites whose
// fast path has overflowed are excluded: they compile to double arithmetic.
func (f *ArithFeedback) IntOnly() bool {
	return f.SawInt32 && !f.SawDouble && !f.SawString && !f.SawOther &&
		!f.SawOverflow && f.Count > 0
}

// IntOperands reports int32-only operands regardless of overflow history.
func (f *ArithFeedback) IntOperands() bool {
	return f.SawInt32 && !f.SawDouble && !f.SawString && !f.SawOther && f.Count > 0
}

// NumberOnly reports purely numeric operands (int32 and/or double).
func (f *ArithFeedback) NumberOnly() bool {
	return (f.SawInt32 || f.SawDouble) && !f.SawString && !f.SawOther && f.Count > 0
}

// ElemFeedback records array-access behaviour at a GetElem/SetElem site.
type ElemFeedback struct {
	SawArray    bool
	SawNonArray bool
	SawOOB      bool
	// SawAppend records stores at exactly the array length — the sequential
	// growth pattern. Unlike SawOOB it does not disqualify the fast path:
	// the store op itself elongates the array, so append-heavy sites compile
	// to an unchecked store behind a non-negativity guard. Kept separate
	// because OSR entry makes the distinction load-bearing: a loop that
	// grows an array is now profiled *during* the growth (the interpreter
	// escalates to Baseline mid-run), where the seed only ever profiled the
	// re-run over the already-grown array.
	SawAppend bool
	SawHole   bool
	SawNonInt bool
	Count     int64
}

// Observe merges one executed element access by how it resolved; a
// string's character read is not an element-site observation.
func (f *ElemFeedback) Observe(obj, idx value.Value, acc value.ElemAccess) {
	if acc.Path == value.ElemString {
		return
	}
	if obj.IsObject() && obj.Object().IsArray {
		f.SawArray = true
	} else {
		f.SawNonArray = true
	}
	if !idx.IsInt32() {
		f.SawNonInt = true
	}
	if !acc.InBounds {
		if acc.Append {
			f.SawAppend = true
		} else {
			f.SawOOB = true
		}
	}
	if acc.Hole {
		f.SawHole = true
	}
	f.Count++
}

// FastArray reports the access pattern is int-indexed dense-array-only — the
// precondition for FTL's checked fast-path element access.
func (f *ElemFeedback) FastArray() bool {
	return f.SawArray && !f.SawNonArray && !f.SawNonInt && f.Count > 0
}

// MaxWays bounds the per-site shape histograms: a site that observes more
// distinct receiver shapes than this saturates to megamorphic and the
// speculative tiers stop building dispatch trees for it (paper §V-C: guard
// chains must stay footprint-cheap inside transactions).
const MaxWays = 8

// PropWay is one entry of a property site's receiver-shape histogram: the
// shape observed, the slot offset resolved under it, and — for transitioning
// stores — the shape the receiver becomes.
type PropWay struct {
	Shape  *value.Shape
	Offset int
	// NewShape is non-nil for property-add stores observed under Shape: the
	// post-transition shape. A dispatch tree speculates the transition so a
	// property add inside a transaction upgrades the guard instead of
	// deopting.
	NewShape *value.Shape
	Count    int64
}

// PropIC is the inline cache for a property access site. The scalar fields
// keep the original monomorphic fast path; Ways grows a per-shape histogram
// (first-seen order, at most MaxWays entries) for polymorphic dispatch.
type PropIC struct {
	Shape  *value.Shape
	Offset int
	// Transition caches SetProp sites that add a property: oldShape->NewShape.
	NewShape *value.Shape
	Hits     int64
	Misses   int64
	// Poly is set after the cache has been invalidated repeatedly; the
	// speculative tiers then refuse to emit a monomorphic shape-checked fast
	// path (the polymorphic dispatch tree consults Ways instead).
	Poly         bool
	SawNonObject bool
	// SawArrayLength marks sites that read .length of an array (which
	// bypasses the shape cache and compiles to a checked length load).
	SawArrayLength bool
	// Ways is the receiver-shape histogram in first-seen order.
	Ways []PropWay
	// Mega saturates the site: more than MaxWays distinct shapes were seen
	// and the speculative tiers must use the generic path.
	Mega bool
}

// Monomorphic reports the site always saw one shape on an object receiver.
func (ic *PropIC) Monomorphic() bool {
	return ic.Shape != nil && !ic.Poly && !ic.SawNonObject
}

// ObserveWay merges one executed property access into the shape histogram.
// newShape is non-nil for a property-add store (the post-transition shape).
func (ic *PropIC) ObserveWay(shape *value.Shape, offset int, newShape *value.Shape) {
	if shape == nil || ic.Mega {
		return
	}
	for i := range ic.Ways {
		w := &ic.Ways[i]
		if w.Shape == shape {
			w.Count++
			// A site can first replace in place and later add under the same
			// shape (or vice versa); remember the transition when seen.
			if newShape != nil && w.NewShape == nil {
				w.NewShape = newShape
				w.Offset = offset
			}
			return
		}
	}
	if len(ic.Ways) >= MaxWays {
		ic.Mega = true
		return
	}
	ic.Ways = append(ic.Ways, PropWay{Shape: shape, Offset: offset, NewShape: newShape, Count: 1})
}

// CallWay is one entry of a call site's callee histogram: the target
// observed and, for method calls, the receiver shape it was loaded from.
type CallWay struct {
	Target *value.Function
	Recv   *value.Shape
	Count  int64
}

// CallFeedback records the callee observed at a call site. For method calls
// it also records the receiver shape, enabling the FTL tier to emit a
// shape-checked method load plus a callee check. The scalar fields keep the
// monomorphic fast path; Ways grows a per-callee histogram (first-seen
// order, at most MaxWays entries) for polymorphic dispatch.
type CallFeedback struct {
	Target    *value.Function
	RecvShape *value.Shape
	Poly      bool
	Count     int64
	// Ways is the callee histogram in first-seen order.
	Ways []CallWay
	// Mega saturates the site: more than MaxWays distinct callees (or
	// receiver shapes) were seen and the tiers must use the generic call.
	Mega bool
}

// observeWay merges one executed call into the callee histogram. recv is the
// receiver shape for method calls, nil for plain calls.
func (f *CallFeedback) observeWay(fn *value.Function, recv *value.Shape) {
	if fn == nil || f.Mega {
		return
	}
	for i := range f.Ways {
		w := &f.Ways[i]
		if w.Target == fn && w.Recv == recv {
			w.Count++
			return
		}
	}
	if len(f.Ways) >= MaxWays {
		f.Mega = true
		return
	}
	f.Ways = append(f.Ways, CallWay{Target: fn, Recv: recv, Count: 1})
}

// Observe merges one executed call.
func (f *CallFeedback) Observe(fn *value.Function) {
	if f.Target == nil {
		f.Target = fn
	} else if f.Target != fn {
		f.Poly = true
	}
	f.Count++
	f.observeWay(fn, nil)
}

// ObserveMethod merges one executed method call with its receiver shape.
func (f *CallFeedback) ObserveMethod(fn *value.Function, shape *value.Shape) {
	if f.Target == nil {
		f.Target = fn
	} else if f.Target != fn {
		f.Poly = true
	}
	f.Count++
	if f.RecvShape == nil {
		f.RecvShape = shape
	} else if f.RecvShape != shape {
		f.Poly = true
	}
	f.observeWay(fn, shape)
}

// Monomorphic reports a single callee was ever observed.
func (f *CallFeedback) Monomorphic() bool { return f.Target != nil && !f.Poly && f.Count > 0 }

// FunctionProfile aggregates all feedback for one bytecode function.
type FunctionProfile struct {
	Fn *bytecode.Function

	InvocationCount int64
	BackEdgeCount   int64

	Arith []ArithFeedback // indexed by pc
	Elem  []ElemFeedback  // indexed by pc
	Calls []CallFeedback  // indexed by pc
	ICs   []PropIC        // indexed by IC slot

	// Deopts counts OSR exits from speculative code of this function, used
	// to blocklist functions that repeatedly misspeculate.
	Deopts int64

	// JITUnsupported marks functions the speculative tiers declined to
	// compile; they stay in Baseline permanently. Only deterministic
	// unsupported-function errors (ir.UnsupportedError) set it directly;
	// transient compile errors accumulate in CompileFailures first.
	JITUnsupported bool

	// CompileFailures counts transient (non-deterministic) compile errors.
	// The function is pinned to Baseline only after
	// MaxTransientCompileFailures of them, so one bad compile cannot
	// permanently disable the speculative tiers.
	CompileFailures int64
}

// MaxTransientCompileFailures is the number of transient compile errors after
// which a function is treated as uncompilable.
const MaxTransientCompileFailures = 8

// New allocates a profile sized for fn.
func New(fn *bytecode.Function) *FunctionProfile {
	return &FunctionProfile{
		Fn:    fn,
		Arith: make([]ArithFeedback, len(fn.Code)),
		Elem:  make([]ElemFeedback, len(fn.Code)),
		Calls: make([]CallFeedback, len(fn.Code)),
		ICs:   make([]PropIC, fn.NumICs),
	}
}

// Policy sets the tier-up thresholds in weighted execution counts.
type Policy struct {
	BaselineThreshold int64
	DFGThreshold      int64
	FTLThreshold      int64
	// MaxDeopts disables speculative tiers for a function after this many
	// deoptimizations (JSC's "too many exits" heuristic).
	MaxDeopts int64
}

// DefaultPolicy matches the ratios used by the evaluation harness: functions
// reach FTL quickly enough that steady state dominates a measured run.
func DefaultPolicy() Policy {
	return Policy{
		BaselineThreshold: 4,
		DFGThreshold:      50,
		FTLThreshold:      500,
		MaxDeopts:         16,
	}
}

// AddBackEdges folds a back-edge delta carried across a tier transfer (a
// frame.Frame handed between tiers) into the loop-trip count. Every tier
// counts the same bytecode back edges — the interpreter and Baseline at each
// backward unconditional jump, the machine at each BackEdge-flagged block —
// so the count is tier-independent: a run that bounces between tiers
// mid-loop reports the same BackEdgeCount as a pure-interpreter run.
func (p *FunctionProfile) AddBackEdges(n int64) { p.BackEdgeCount += n }

// weightedCount folds loop back edges into the tier-up decision so
// loop-heavy functions promote even when rarely re-invoked.
func (p *FunctionProfile) weightedCount() int64 {
	return p.InvocationCount + p.BackEdgeCount/16
}

// TierFor returns the tier a function at this profile level should run in,
// given the policy and the configured maximum tier.
func (pol Policy) TierFor(p *FunctionProfile, maxTier Tier) Tier {
	c := p.weightedCount()
	t := TierInterp
	switch {
	case c >= pol.FTLThreshold && p.Deopts < pol.MaxDeopts:
		t = TierFTL
	case c >= pol.DFGThreshold && p.Deopts < pol.MaxDeopts:
		t = TierDFG
	case c >= pol.BaselineThreshold:
		t = TierBaseline
	}
	if t > maxTier {
		t = maxTier
	}
	// Functions that use closures are pinned to Baseline (paper-faithful
	// simplification: such functions contribute NoFTL instructions).
	if p.Fn.UsesClosure && t > TierBaseline {
		t = TierBaseline
	}
	return t
}
