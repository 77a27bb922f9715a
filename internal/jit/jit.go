// Package jit drives the speculative tiers: it compiles hot functions with
// the DFG or FTL pipeline (under the configured NoMap architecture), runs
// them on the machine, and routes the two recovery paths — OSR exits into
// the Baseline tier and transaction-abort recovery — through the
// abort-recovery governor, which owns all post-abort policy (per-site abort
// ledgers, surgical SMP restoration, the §V-C footprint retreat with
// probationary re-promotion, and irrevocable-abort handling).
package jit

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"nomap/internal/bytecode"
	"nomap/internal/codecache"
	"nomap/internal/core"
	"nomap/internal/dfg"
	"nomap/internal/frame"
	"nomap/internal/ftl"
	"nomap/internal/governor"
	"nomap/internal/htm"
	"nomap/internal/interp"
	"nomap/internal/ir"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// codeKey identifies one cached artifact: a function compiled either at its
// invocation entry (osr == -1) or as an OSR artifact entering at loop header
// osr. The same function can hold both simultaneously.
type codeKey struct {
	fn  *bytecode.Function
	osr int
}

// Backend implements vm.JITBackend.
type Backend struct {
	mach     *machine.Machine
	code     map[codeKey]*unit
	gov      *governor.Governor
	arch     vm.Arch
	passHook func(pass string, f *ir.Func)

	// inline enables speculative call inlining in the DFG and FTL tiers
	// (from vm.Config.DisableInlining); profiles resolves callee feedback
	// for the inliner (the owning VM's ProfileFor).
	inline   bool
	profiles func(*bytecode.Function) *profile.FunctionProfile

	// noIC (from vm.Config.DisableIC) drops every dispatch plan at
	// expansion time, keeping polymorphic sites on the generic path.
	noIC bool

	// osrFailed records (function, header) pairs whose OSR compile failed.
	// An unsupported OSR region says nothing about the whole function — the
	// invocation-entry compile may still succeed — so the failure is scoped
	// here instead of profile.JITUnsupported.
	osrFailed map[codeKey]bool

	// cache, when set, is the serving layer's shared compiled-code cache;
	// realm is the owning VM's naming context used to relocate cached
	// artifacts into it, and policy rides in the cache key so isolates under
	// different tier-up policies never share entries.
	cache  *codecache.Cache
	realm  codecache.Realm
	policy profile.Policy

	// sink, when set alongside cache, moves tier-up compilation off this
	// goroutine: a cache miss is offered to the sink (the serving pool's
	// background compile queue) instead of filling inline, and execution
	// declines to the current-best tier.
	sink func(profile.Tier)
}

// unit is one installed artifact: the program lowered for the tier it was
// compiled at (or bound from the shared cache).
type unit struct {
	prog machine.Program
}

// mainKey keys the invocation-entry artifact of fn.
func mainKey(fn *bytecode.Function) codeKey { return codeKey{fn: fn, osr: -1} }

// Attach creates a backend for v (selecting lightweight ROT or heavyweight
// RTM per the configured architecture) and installs it.
func Attach(v *vm.VM) *Backend {
	cfg := htm.ROTConfig()
	if v.Config().Arch.HeavyweightHTM() {
		cfg = htm.RTMConfig()
	}
	b := &Backend{
		mach:      machine.New(v, cfg),
		code:      make(map[codeKey]*unit),
		osrFailed: make(map[codeKey]bool),
		gov:       governor.New(governor.DefaultPolicy(!v.Config().Arch.HeavyweightHTM())),
		arch:      v.Config().Arch,
		realm:     v,
		policy:    v.Config().Policy,
		inline:    !v.Config().DisableInlining,
		profiles:  v.ProfileFor,
		noIC:      v.Config().DisableIC,
	}
	v.SetJIT(b)
	return b
}

// SetCodeCache connects the backend to a shared compiled-code cache (nil
// disconnects it). While connected, speculative-tier compiles go through the
// cache: a hit binds another isolate's artifact instead of compiling. The
// cache is bypassed whenever a pass hook is installed, since hooks observe
// compilation itself and a bound artifact never compiles.
func (b *Backend) SetCodeCache(c *codecache.Cache) { b.cache = c }

// errDeferred is the internal sentinel of the deferred-compile path: the
// artifact is not in the cache yet, a background compile has been offered to
// the sink, and the request should keep running at its current-best tier. It
// never escapes the backend — Execute and ExecuteOSR translate it into a
// clean handled=false decline without charging a compile failure or pinning
// the function.
var errDeferred = errors.New("jit: compile deferred to background queue")

// SetCompileSink installs (or with nil removes) the deferred-compile sink.
// While a sink and a shared cache are both connected, speculative-tier cache
// misses do not compile on the calling goroutine: the backend offers the
// tier to the sink — the serving pool's bounded background compile queue —
// and declines execution, so the request proceeds at the tier it already
// has. Cache hits bind as usual; uncacheable and unrelocatable keys compile
// locally, since no background fill could ever serve them.
func (b *Backend) SetCompileSink(f func(profile.Tier)) { b.sink = f }

// Machine exposes the execution engine (for the harness: cache and HTM
// statistics).
func (b *Backend) Machine() *machine.Machine { return b.mach }

// Governor exposes the abort-recovery governor (for diagnostics and tests).
func (b *Backend) Governor() *governor.Governor { return b.gov }

// SetGovernorPolicy replaces the governor (and all its ledgers) with a fresh
// one under the given policy. Like Reset, it also returns the simulated
// hardware to its initial condition: leaving the old policy's cache warmth
// and HTM counter state in place would attribute them to the new policy's
// run, skewing any comparison that switches policy on a live backend.
func (b *Backend) SetGovernorPolicy(p governor.Policy) {
	b.Reset()
	b.gov = governor.New(p)
}

// Reset discards all cached code, governor state, and simulated hardware
// state (address map, caches, HTM), returning the backend to its post-Attach
// condition. Differential and fault-injection runs that reuse a backend call
// it so an injected fault in one run cannot change policy decisions — or
// cache warmth — in the next.
func (b *Backend) Reset() {
	clear(b.code)
	clear(b.osrFailed)
	b.gov.Reset()
	b.mach.ResetState()
}

// TxLevelOf reports the current §V-C transaction placement level for a
// function (TxLoopNest until the governor lowers it).
func (b *Backend) TxLevelOf(fn *bytecode.Function) core.TxLevel {
	return b.gov.LevelFor(fn.Name)
}

// CompiledFunctions returns the currently cached speculative-tier code, for
// diagnostics (nomap-run -dump-ir), ordered by function name and then
// entry pc so a function's invocation-entry artifact precedes its OSR
// artifacts and the dump does not vary from run to run.
func (b *Backend) CompiledFunctions() []*ir.Func {
	out := make([]*ir.Func, 0, len(b.code))
	for _, u := range b.code {
		out = append(out, u.prog.Func())
	}
	slices.SortFunc(out, func(x, y *ir.Func) int {
		return cmp.Or(strings.Compare(x.Name, y.Name), cmp.Compare(x.OSREntryPC, y.OSREntryPC))
	})
	return out
}

// InTransaction reports whether a hardware transaction is open.
func (b *Backend) InTransaction() bool { return b.mach.InTx() }

// SetPassHook installs a callback observing every compiled function after
// each optimization pass (FTL) or after its pipeline (DFG). The oracle uses
// it to run ir.Verify on all code compiled during a fault-injection run.
func (b *Backend) SetPassHook(h func(pass string, f *ir.Func)) { b.passHook = h }

// Execute runs fn in the given speculative tier, falling back to Baseline
// (handled=false) when compilation is not possible.
func (b *Backend) Execute(v *vm.VM, fn *value.Function, prof *profile.FunctionProfile, tier profile.Tier, args []value.Value) (value.Value, bool, error) {
	bcFn, ok := fn.Code.(*bytecode.Function)
	if !ok || prof.JITUnsupported {
		return value.Undefined(), false, nil
	}
	key := mainKey(bcFn)
	u, err := b.codeFor(v, key, prof, tier)
	if err != nil {
		// A deferred compile is not a failure: the background queue will
		// fill the cache, and until then the current-best tier serves.
		// Deterministic unsupported-function errors pin the function to
		// Baseline; anything else is treated as transient and only pins
		// after a bounded number of failures.
		switch {
		case err == errDeferred:
		case ir.IsUnsupported(err):
			prof.JITUnsupported = true
		default:
			prof.CompileFailures++
			if prof.CompileFailures >= profile.MaxTransientCompileFailures {
				prof.JITUnsupported = true
			}
		}
		return value.Undefined(), false, nil
	}

	ctrs := v.Counters()
	commitsBefore := ctrs.TxCommits
	res, deopt, err := b.mach.Run(&u.prog, args)
	if err != nil {
		return value.Undefined(), true, err
	}
	b.settle(key, prof, tier, deopt, ctrs.TxCommits-commitsBefore)
	if deopt == nil {
		return res, true, nil
	}
	out, err := resumeChain(v, deopt.Frame, func() *value.Environment {
		return value.NewEnvironment(fn.Env, bcFn.NumCells)
	})
	return out, true, err
}

// resumeChain resumes a reconstructed frame chain in the Baseline tier,
// innermost frame first. A deopt inside inlined code materializes the callee
// frame plus every flattened caller: each frame runs to its return, the
// result lands in the caller's result register, and the caller — positioned
// at its call instruction — steps past it and resumes. Inline frames carry
// their function object, from which the callee environment is allocated;
// the root frame either inherited a live environment (OSR artifacts) or gets
// one from rootEnv (invocation-entry artifacts).
func resumeChain(v *vm.VM, fr *frame.Frame, rootEnv func() *value.Environment) (value.Value, error) {
	for {
		if fr.Env == nil {
			if fr.Function != nil {
				fr.Env = value.NewEnvironment(fr.Function.Env, fr.Fn.NumCells)
			} else if rootEnv != nil {
				fr.Env = rootEnv()
			}
		}
		res, err := interp.Exec(v, fr, profile.TierBaseline)
		if err != nil {
			return value.Undefined(), err
		}
		caller := fr.Caller
		if caller == nil {
			return res, nil
		}
		caller.Locals[fr.RetReg] = v.Handles().Box(res)
		caller.PC++ // the caller frame is positioned at its call instruction
		fr = caller
	}
}

// ExecuteOSR enters optimized code mid-loop: fr is a live bytecode frame
// stopped at a hot loop header. The backend compiles (or reuses) an OSR
// artifact with its entry at that header, binds fr's locals to its
// OpOSRLocal values through machine.EnterAt, and runs to completion —
// including the Baseline resume after any deopt or abort. handled=false
// declines and leaves fr untouched for the bytecode tiers.
func (b *Backend) ExecuteOSR(v *vm.VM, fr *frame.Frame, prof *profile.FunctionProfile, tier profile.Tier) (value.Value, bool, error) {
	bcFn := fr.Fn
	if prof.JITUnsupported || !b.gov.OSRAllowed(bcFn.Name, fr.PC) {
		return value.Undefined(), false, nil
	}
	key := codeKey{fn: bcFn, osr: fr.PC}
	if b.osrFailed[key] {
		return value.Undefined(), false, nil
	}
	u, err := b.codeFor(v, key, prof, tier)
	if err != nil {
		// Deferred is transient — the loop stays on its bytecode tier this
		// pass and OSR retries once the background fill lands.
		if err != errDeferred {
			b.osrFailed[key] = true
		}
		return value.Undefined(), false, nil
	}

	ctrs := v.Counters()
	commitsBefore := ctrs.TxCommits
	res, deopt, err := b.mach.EnterAt(&u.prog, fr)
	if err != nil {
		return value.Undefined(), true, err
	}
	b.settle(key, prof, tier, deopt, ctrs.TxCommits-commitsBefore)
	if deopt == nil {
		return res, true, nil
	}

	// The root recovery frame inherited fr's environment in the machine's
	// materialization; inline frames allocate theirs in the resume loop.
	out, err := resumeChain(v, deopt.Frame, nil)
	return out, true, err
}

// codeFor returns the artifact for key at tier: the installed one when it is
// current, otherwise a fresh compile (or shared-cache bind) that it installs.
// Only a compilation that actually ran for this isolate is charged and
// traced; what a compile error means is the caller's policy.
func (b *Backend) codeFor(v *vm.VM, key codeKey, prof *profile.FunctionProfile, tier profile.Tier) (*unit, error) {
	if u := b.code[key]; u != nil && u.prog.Tier() == tier {
		return u, nil
	}
	u, compiled, err := b.compile(key, prof, tier, v.Counters())
	if err != nil {
		return nil, err
	}
	b.code[key] = u
	if compiled {
		v.Counters().Compilations[tier]++
		b.mach.Emit(machine.Event{Kind: machine.EventCompile, Fn: key.fn.Name, Tier: tier})
		b.emitFills(key.fn.Name, u.prog.Func())
	}
	return u, nil
}

// emitFills records one EventICFill per dispatch tree the compile
// materialized — the cache-fill step of the miss → fill → hit IC ladder.
func (b *Backend) emitFills(fn string, f *ir.Func) {
	for _, d := range f.Dispatch {
		b.mach.Emit(machine.Event{Kind: machine.EventICFill, Fn: fn, PC: d.PC, Inline: d.Path, N: int64(d.Ways)})
	}
}

// settle feeds one finished run of the artifact cached under key to the
// recovery policy. The governor owns all post-run policy for FTL code: clean
// runs feed ledger decay and probationary re-promotion (a started probe drops
// the cached code so the next call compiles one level higher), transfers are
// judged site by site, and a transfer out of an OSR artifact also charges its
// loop header. DFG deopts keep the plain budget semantics (charge the budget,
// recompile with refreshed feedback) since no transactions are involved.
func (b *Backend) settle(key codeKey, prof *profile.FunctionProfile, tier profile.Tier, deopt *machine.Deopt, commits int64) {
	name := key.fn.Name
	switch {
	case tier != profile.TierFTL:
		if deopt != nil {
			prof.Deopts++
			delete(b.code, key)
		}
	case deopt == nil:
		b.apply(b.gov.OnClean(name, commits), nil)
	default:
		dec := b.gov.OnTransfer(governor.Transfer{
			Fn:       name,
			Aborted:  deopt.Aborted,
			Cause:    deopt.Cause,
			Site:     deopt.Site,
			HadCalls: deopt.HadCalls,
			OSR:      key.osr >= 0,
			OSRPC:    key.osr,
		})
		if dec.DemotedDispatch {
			b.mach.Emit(machine.Event{Kind: machine.EventICDemote, Fn: name, PC: deopt.Site.PC, Inline: deopt.Site.Path})
		}
		b.apply(dec, prof)
	}
}

// demoteFor returns the predicate the compilers use to drop dispatch plans
// plus its cache-key fingerprint ("" in the common case, keeping pre-IC keys
// byte-identical): the VM-level DisableIC switch demotes everything ("*") in
// both tiers; the governor's per-site demote set is an FTL recovery mechanism
// (a megamorphic site never grows a plan, and persistent dispatch misses
// surface after promotion to FTL).
func (b *Backend) demoteFor(name string, tier profile.Tier) (func(pc int, path string) bool, string) {
	if b.noIC {
		return func(int, string) bool { return true }, "*"
	}
	if tier == profile.TierDFG {
		return nil, ""
	}
	set := b.gov.DemoteSet(name)
	if len(set) == 0 {
		return nil, ""
	}
	return set.HasFamily, codecache.KeepFingerprint(set)
}

// apply enacts a governor decision: budget charge and code-cache drops.
func (b *Backend) apply(dec governor.Decision, prof *profile.FunctionProfile) {
	if dec.ChargeDeopt && prof != nil {
		prof.Deopts++
	}
	if !dec.Recompile {
		return
	}
	for _, name := range dec.Drop {
		for k := range b.code {
			if k.fn.Name == name {
				delete(b.code, k)
			}
		}
	}
}

// inlineFP fingerprints the transitive inlinable-callee feedback for a cache
// key; zero when inlining is off, so non-inlining isolates key as before.
func (b *Backend) inlineFP(bcFn *bytecode.Function) uint64 {
	if !b.inline {
		return 0
	}
	return codecache.InlineFingerprint(bcFn, b.profiles, b.realm, ir.DefaultInlineOptions(nil).MaxDepth)
}

// compile produces (or, through the shared code cache, obtains) code for
// key.fn at tier, entering at key.osr: -1 is the invocation entry, anything
// else the loop header an OSR artifact enters at — the cache key carries it,
// so a function's invocation-entry artifact and its OSR artifacts coexist.
// The returned bool reports whether a compilation actually ran on behalf of
// this isolate — false means a cached artifact was bound — so codeFor can
// charge Compilations honestly.
func (b *Backend) compile(key codeKey, prof *profile.FunctionProfile, tier profile.Tier, ctrs *stats.Counters) (*unit, bool, error) {
	// Every input that steers code generation is gathered here once and feeds
	// both the fill closure and the cache key below, so an option cannot reach
	// the compiler without also partitioning the cache.
	fn := key.fn
	level, keep := core.TxOff, core.KeepSet(nil)
	if tier != profile.TierDFG {
		// Transaction placement and kept SMPs are FTL-only (the DFG tier forms
		// no transactions).
		level, keep = b.gov.LevelFor(fn.Name), b.gov.KeepSet(fn.Name)
	}
	demote, demoteFP := b.demoteFor(fn.Name, tier)
	// The callee-profile resolver steering the inliner; nil when inlining is
	// off.
	var profiles func(*bytecode.Function) *profile.FunctionProfile
	if b.inline {
		profiles = b.profiles
	}

	var fill func() (*ir.Func, error)
	if tier == profile.TierDFG {
		fill = func() (*ir.Func, error) {
			f, err := dfg.Compile(fn, prof, key.osr, profiles, demote)
			if err == nil && b.passHook != nil {
				pass := "dfg"
				if key.osr >= 0 {
					pass = "dfg-osr"
				}
				b.passHook(pass, f)
			}
			return f, err
		}
	} else {
		opts := optionsFor(b.arch, level)
		opts.KeepSMP = keep
		opts.Inline = b.inline
		opts.Profiles = profiles
		opts.Demote = demote
		opts.OSR = key.osr >= 0
		opts.OSREntryPC = key.osr
		opts.PassHook = b.passHook
		fill = func() (*ir.Func, error) { return ftl.Compile(fn, prof, opts) }
	}

	// A pass hook observes compilation itself and a bound artifact never
	// compiles, so an installed hook bypasses the cache like having none.
	if b.cache == nil || b.passHook != nil {
		f, err := fill()
		if err != nil {
			return nil, true, err
		}
		return &unit{prog: machine.Lower(f, tier)}, true, nil
	}
	// The fingerprints walk the whole profile; they are computed only here,
	// where the shared cache is actually consulted.
	ckey := codecache.Key{
		Code:     fn,
		Tier:     tier,
		Arch:     uint8(b.arch),
		Level:    level,
		Policy:   b.policy,
		KeepFP:   codecache.KeepFingerprint(keep),
		DemoteFP: demoteFP,
		ProfFP:   codecache.FingerprintProfile(prof, b.realm),
		InlineFP: b.inlineFP(fn),
		OSR:      key.osr,
	}
	if b.sink != nil {
		// Deferred compilation: consult the cache without ever filling or
		// waiting. An absent artifact is offered to the sink, one mid-fill
		// elsewhere will appear on its own; either way execution declines.
		prog, st := b.cache.Lookup(ckey, b.realm, ctrs)
		switch st {
		case codecache.LookupHit:
			return &unit{prog: prog}, false, nil
		case codecache.LookupMiss:
			b.sink(tier)
			return nil, false, errDeferred
		case codecache.LookupInflight:
			return nil, false, errDeferred
		}
		// LookupUncacheable / LookupBindFail: no background fill could ever
		// serve this isolate, so it compiles on this goroutine — through
		// Compile, whose local-fill branch keeps the process-wide accounting
		// and the fault probe the same with and without a sink.
	}
	prog, compiled, err := b.cache.Compile(ckey, b.realm, ctrs, fill)
	if err != nil {
		return nil, compiled, err
	}
	return &unit{prog: prog}, compiled, nil
}

func optionsFor(arch vm.Arch, level core.TxLevel) ftl.Options {
	return ftl.Options{
		Transactions:   arch.UsesTransactions(),
		TxLevel:        level,
		CombineBounds:  arch.CombinesBoundsChecks() && !arch.RemovesAllChecks(),
		RemoveOverflow: arch.RemovesOverflowChecks() && !arch.RemovesAllChecks(),
		RemoveAll:      arch.RemovesAllChecks(),
	}
}

var _ vm.JITBackend = (*Backend)(nil)
