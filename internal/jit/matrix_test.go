package jit_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/codecache"
	"nomap/internal/frame"
	"nomap/internal/ir"
	"nomap/internal/isolate"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
)

var updateMatrix = flag.Bool("update", false, "rewrite testdata/compile_matrix.golden with current output")

// The matrix programs. Both carry one two-shape property site so every
// compile materializes a dispatch tree (an EventICFill per compile); the
// site sees pa on the isolate's first three visits and pb ever after, so by
// the first compile point its feedback (way order, last shape) has settled
// and the profile fingerprint in the cache key no longer moves. The invocation program is loop-free — no back edge ever polls for OSR, so its
// cells see Execute only; the OSR program is called once and can reach the
// optimizing tiers only through ExecuteOSR at its loop header.
const (
	matrixInvokeSrc = `
var arr = [];
for (var i = 0; i < 32; i++) arr[i] = i;
var pa = {x: 1};
var pb = {y: 2, x: 3};
var seen = 0;
function run(n) {
  var o = (seen < 3) ? pa : pb;
  seen = seen + 1;
  return arr[n & 31] + o.x;
}
`
	matrixOSRSrc = `
var arr = [];
for (var i = 0; i < 32; i++) arr[i] = i;
var pa = {x: 1};
var pb = {y: 2, x: 3};
var seen = 0;
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    var o = (seen < 3) ? pa : pb;
    seen = seen + 1;
    s += arr[i & 31] + o.x;
  }
  return s;
}
`
)

// runs is a run-length-encoded log: consecutive equal entries fold into
// "entry ×N".
type runs struct {
	last string
	n    int
	out  []string
}

func (r *runs) add(s string) {
	if r.n > 0 && s == r.last {
		r.n++
		return
	}
	r.flush()
	r.last, r.n = s, 1
}

func (r *runs) flush() {
	if r.n == 1 {
		r.out = append(r.out, r.last)
	} else if r.n > 1 {
		r.out = append(r.out, fmt.Sprintf("%s ×%d", r.last, r.n))
	}
	r.n = 0
}

func (r *runs) String() string {
	r.flush()
	if len(r.out) == 0 {
		return "-"
	}
	return strings.Join(r.out, ", ")
}

// recJIT wraps the backend the way the benchmark's timing wrapper does and
// logs, per backend call, which entry was asked for and whether the backend
// handled or declined it.
type recJIT struct {
	inner *jit.Backend
	calls runs
}

func (j *recJIT) note(kind string, tier profile.Tier, handled bool, err error) {
	verdict := "declined"
	if handled {
		verdict = "handled"
	}
	if err != nil {
		verdict = "error"
	}
	j.calls.add(fmt.Sprintf("%s %s %s", kind, tier, verdict))
}

func (j *recJIT) Execute(v *vm.VM, fn *value.Function, prof *profile.FunctionProfile, tier profile.Tier, args []value.Value) (value.Value, bool, error) {
	res, handled, err := j.inner.Execute(v, fn, prof, tier, args)
	j.note("execute", tier, handled, err)
	return res, handled, err
}

func (j *recJIT) ExecuteOSR(v *vm.VM, fr *frame.Frame, prof *profile.FunctionProfile, tier profile.Tier) (value.Value, bool, error) {
	res, handled, err := j.inner.ExecuteOSR(v, fr, prof, tier)
	j.note("osr", tier, handled, err)
	return res, handled, err
}

func (j *recJIT) InTransaction() bool { return j.inner.InTransaction() }

// matrixEngine is one isolate of the cell's program with every observation
// point of the compile path recorded.
type matrixEngine struct {
	iso    *isolate.Isolate
	rec    *recJIT
	events runs
	sink   runs
	passes runs
}

type matrixCell struct {
	tier  profile.Tier
	osr   bool
	noIC  bool // engines created from here on run with DisableIC
	cache *codecache.Cache
	entry *codecache.ProgramEntry
}

func newMatrixCell(t *testing.T, tier profile.Tier, osr bool, shared bool) *matrixCell {
	t.Helper()
	src := matrixInvokeSrc
	if osr {
		src = matrixOSRSrc
	}
	entry, err := codecache.NewPrograms().Load(src)
	if err != nil {
		t.Fatal(err)
	}
	c := &matrixCell{tier: tier, osr: osr, entry: entry}
	if shared {
		c.cache = codecache.NewCache(0)
	}
	return c
}

// engine creates one isolate of the cell's program, capped at the cell's
// tier, with the call log and the compile-event tracer attached.
func (c *matrixCell) engine(t *testing.T) *matrixEngine {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	cfg.MaxTier = c.tier
	cfg.Policy = testPolicy
	cfg.DisableIC = c.noIC
	e := &matrixEngine{iso: isolate.New(cfg)}
	e.iso.UseCache(c.cache)
	if err := e.iso.Load(c.entry); err != nil {
		t.Fatal(err)
	}
	e.rec = &recJIT{inner: e.iso.Backend()}
	e.iso.VM().SetJIT(e.rec)
	e.iso.Backend().Machine().SetTracer(func(ev machine.Event) {
		if ev.Kind == machine.EventCompile || ev.Kind == machine.EventICFill {
			e.events.add(ev.String())
		}
	})
	return e
}

func (e *matrixEngine) withSink() *matrixEngine {
	e.iso.Backend().SetCompileSink(func(tier profile.Tier) { e.sink.add(tier.String()) })
	return e
}

func (e *matrixEngine) withHook() *matrixEngine {
	e.iso.Backend().SetPassHook(func(pass string, _ *ir.Func) { e.passes.add(pass) })
	return e
}

// drive runs the cell's traffic: 60 calls of the loop-free program (tier-up
// by invocation count) or one call of the looping program (tier-up only by
// OSR entry).
func (c *matrixCell) drive(t *testing.T, e *matrixEngine) {
	t.Helper()
	if err := c.traffic(e); err != nil {
		t.Fatal(err)
	}
}

func (c *matrixCell) traffic(e *matrixEngine) error {
	if c.osr {
		_, err := e.iso.VM().CallGlobal("run", value.Int(4000))
		return err
	}
	for i := 0; i < 60; i++ {
		if _, err := e.iso.VM().CallGlobal("run", value.Int(int32(i))); err != nil {
			return err
		}
	}
	return nil
}

func (e *matrixEngine) runProfile() *profile.FunctionProfile {
	v := e.iso.VM()
	fn := v.Globals().Get("run").Object().Fn.Code.(*bytecode.Function)
	return v.ProfileFor(fn)
}

func statsDelta(after, before codecache.Stats) string {
	return fmt.Sprintf("hits=%d misses=%d waits=%d evictions=%d uncacheable=%d bindfails=%d compiles=%d",
		after.Hits-before.Hits, after.Misses-before.Misses, after.Waits-before.Waits,
		after.Evictions-before.Evictions, after.Uncacheable-before.Uncacheable,
		after.BindFails-before.BindFails, after.Compiles-before.Compiles)
}

// report renders everything the cell observed about e since its creation;
// before is the cache snapshot taken when e's traffic started.
func (c *matrixCell) report(e *matrixEngine, before codecache.Stats) string {
	ctrs := e.iso.VM().Counters()
	prof := e.runProfile()
	var sb strings.Builder
	fmt.Fprintf(&sb, "  calls:    %s\n", e.rec.calls.String())
	fmt.Fprintf(&sb, "  compiled: dfg=%d ftl=%d\n", ctrs.Compilations[profile.TierDFG], ctrs.Compilations[profile.TierFTL])
	fmt.Fprintf(&sb, "  isolate:  hits=%d misses=%d\n", ctrs.CodeCacheHits, ctrs.CodeCacheMisses)
	if c.cache != nil {
		fmt.Fprintf(&sb, "  cache:    %s\n", statsDelta(c.cache.Stats(), before))
	} else {
		fmt.Fprintf(&sb, "  cache:    none\n")
	}
	fmt.Fprintf(&sb, "  sink:     %s\n", e.sink.String())
	fmt.Fprintf(&sb, "  events:   %s\n", e.events.String())
	fmt.Fprintf(&sb, "  passes:   %s\n", e.passes.String())
	fmt.Fprintf(&sb, "  pinned:   unsupported=%v failures=%d\n", prof.JITUnsupported, prof.CompileFailures)
	return sb.String()
}

// retry drives e once more after the cache was filled behind its back and
// reports only the new backend calls: a deferred compile must have left
// neither JITUnsupported nor the backend's OSR-failure mark behind, so the
// retry binds the filled artifact and is handled.
func (c *matrixCell) retry(t *testing.T, e *matrixEngine) string {
	t.Helper()
	e.rec.calls = runs{}
	c.drive(t, e)
	return fmt.Sprintf("  retry:    %s\n", e.rec.calls.String())
}

// driveAlone is the cell with one isolate and nothing installed on it.
func driveAlone(t *testing.T, c *matrixCell) string {
	e := c.engine(t)
	c.drive(t, e)
	return c.report(e, codecache.Stats{})
}

var matrixStrategies = []struct {
	name string
	run  func(t *testing.T, c *matrixCell) string
}{
	{"no cache", driveAlone},
	{"shared cache, first isolate fills", driveAlone},
	{"shared cache, second isolate binds", func(t *testing.T, c *matrixCell) string {
		c.drive(t, c.engine(t))
		before := c.cache.Stats()
		e := c.engine(t)
		c.drive(t, e)
		return c.report(e, before)
	}},
	{"sink + miss", func(t *testing.T, c *matrixCell) string {
		e := c.engine(t).withSink()
		c.drive(t, e)
		out := c.report(e, codecache.Stats{})
		c.drive(t, c.engine(t)) // a sink-less isolate fills the cache
		return out + c.retry(t, e)
	}},
	{"sink + in-flight", func(t *testing.T, c *matrixCell) string {
		// The filler blocks inside the cell's own fill (the last one on its
		// way up: DFG fills first when the cap is FTL and entry is by
		// invocation), holding the key in flight while the sinked isolate runs.
		blockAt := 1
		if c.tier == profile.TierFTL && !c.osr {
			blockAt = 2
		}
		started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		fills := 0
		c.cache.SetFaultProbe(func() error {
			if fills++; fills == blockAt {
				close(started)
				<-release
			}
			return nil
		})
		filler := c.engine(t)
		var fillErr error
		go func() {
			defer close(done)
			fillErr = c.traffic(filler)
		}()
		<-started
		before := c.cache.Stats()
		e := c.engine(t).withSink()
		c.drive(t, e)
		out := c.report(e, before)
		close(release)
		<-done
		if fillErr != nil {
			t.Fatal(fillErr)
		}
		c.cache.SetFaultProbe(nil)
		return out + c.retry(t, e)
	}},
	{"sink + hit", func(t *testing.T, c *matrixCell) string {
		c.drive(t, c.engine(t))
		before := c.cache.Stats()
		e := c.engine(t).withSink()
		c.drive(t, e)
		return c.report(e, before)
	}},
	{"pass hook installed, cache attached", func(t *testing.T, c *matrixCell) string {
		e := c.engine(t).withHook()
		c.drive(t, e)
		return c.report(e, codecache.Stats{})
	}},
}

// TestCompileMatrix freezes the backend's "code for (function, tier, entry)"
// step across {DFG, FTL} × {invocation entry, OSR entry} × every cache
// strategy: per cell, which backend calls were handled or declined, what was
// charged to the isolate and to the shared cache, what the sink was offered,
// and which compile events and pass-hook names were emitted. The golden was
// recorded before the four compile bodies were unified; a drift means the
// compile driver changed behaviour, not just shape.
func TestCompileMatrix(t *testing.T) {
	var sb strings.Builder
	for _, tier := range []profile.Tier{profile.TierDFG, profile.TierFTL} {
		for _, osr := range []bool{false, true} {
			for i, s := range matrixStrategies {
				entry := "invocation"
				if osr {
					entry = "osr"
				}
				fmt.Fprintf(&sb, "== %s / %s / %s\n", tier, entry, s.name)
				sb.WriteString(s.run(t, newMatrixCell(t, tier, osr, i > 0)))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "compile_matrix.golden")
	if *updateMatrix {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/jit -run CompileMatrix -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("compile matrix drifted from %s (re-run with -update if intended)\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// uncacheableSrc compiles run() with a direct call to f2 — the second closure
// over one bytecode function, which the relocation manifest cannot name — so
// the first isolate's fill marks run's DFG and FTL keys uncacheable.
const uncacheableSrc = `
function mk() { return function(x) { return x + 1; }; }
var f1 = mk();
var f2 = mk();
function run(n) { return f2(n) + f1(n); }
`

// TestSinkCountsLocalFillsLikeSyncPath: a key the cache can never serve
// compiles on the requesting goroutine with or without a compile sink, and
// the process-wide accounting must not depend on which: Stats().Uncacheable,
// Stats().Compiles and FillCounts() advance identically, and the chaos fault
// probe sees the local fill either way.
func TestSinkCountsLocalFillsLikeSyncPath(t *testing.T) {
	entry, err := codecache.NewPrograms().Load(uncacheableSrc)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		delta    string
		fills    map[codecache.FillGroup]int64
		probes   int
		compiled [4]int64
		misses   int64
	}
	observe := func(sink bool) outcome {
		c := &matrixCell{tier: profile.TierFTL, cache: codecache.NewCache(0), entry: entry}
		c.drive(t, c.engine(t)) // the donor marks run's keys uncacheable
		var o outcome
		c.cache.SetFaultProbe(func() error { o.probes++; return nil })
		before := c.cache.Stats()
		e := c.engine(t)
		if sink {
			e.withSink()
		}
		c.drive(t, e)
		if got := e.sink.String(); got != "-" {
			t.Errorf("sink=%v: uncacheable keys were offered to the sink: %s", sink, got)
		}
		o.delta = statsDelta(c.cache.Stats(), before)
		o.fills = c.cache.FillCounts()
		o.compiled = e.iso.VM().Counters().Compilations
		o.misses = e.iso.VM().Counters().CodeCacheMisses
		return o
	}
	want, got := observe(false), observe(true)
	if !strings.Contains(want.delta, "uncacheable=2 ") || want.probes != 2 {
		t.Fatalf("sink-less run did not compile run's two uncacheable keys locally: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("accounting differs under a compile sink:\n sink:      %+v\n sink-less: %+v", got, want)
	}
}

// TestDisableICPartitionsCache: DisableIC drops every dispatch plan in both
// speculative tiers, so it must partition the cache in both — an IC-less
// isolate that bound an IC isolate's DFG artifact would run dispatch trees it
// was configured not to build.
func TestDisableICPartitionsCache(t *testing.T) {
	for _, tier := range []profile.Tier{profile.TierDFG, profile.TierFTL} {
		c := newMatrixCell(t, tier, false, true)
		c.drive(t, c.engine(t))
		c.noIC = true
		e := c.engine(t)
		c.drive(t, e)
		if hits := e.iso.VM().Counters().CodeCacheHits; hits != 0 {
			t.Errorf("cap %s: IC-less isolate bound %d artifacts compiled with dispatch trees", tier, hits)
		}
	}
}
