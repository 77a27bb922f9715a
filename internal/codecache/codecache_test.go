// External test package: exercises the cache through the same surfaces the
// serving layer uses (vm.VM as the Realm, interned programs as key
// identities) without creating an import cycle.
package codecache_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nomap/internal/chaos"
	"nomap/internal/codecache"
	"nomap/internal/core"
	"nomap/internal/ir"
	"nomap/internal/isolate"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

func testKey(t *testing.T, progs *codecache.Programs, profFP uint64) codecache.Key {
	t.Helper()
	entry, err := progs.Load(`function run(n) { return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	return codecache.Key{
		Code:   entry.Main,
		Tier:   profile.TierFTL,
		Arch:   uint8(vm.ArchNoMap),
		Level:  core.TxInnermost,
		ProfFP: profFP,
	}
}

func trivialFill() (*ir.Func, error) {
	return ir.NewFunc("t", nil), nil
}

func TestKeepFingerprintCanonical(t *testing.T) {
	a := core.KeepSet{
		{PC: 9, Class: stats.CheckBounds}:   true,
		{PC: 2, Class: stats.CheckOverflow}: true,
		{PC: 2, Class: stats.CheckProperty}: true,
	}
	// Same sites, different construction order.
	b := core.KeepSet{}
	b[core.CheckSite{PC: 2, Class: stats.CheckProperty}] = true
	b[core.CheckSite{PC: 9, Class: stats.CheckBounds}] = true
	b[core.CheckSite{PC: 2, Class: stats.CheckOverflow}] = true
	if codecache.KeepFingerprint(a) != codecache.KeepFingerprint(b) {
		t.Error("equal keep sets must fingerprint equally regardless of order")
	}
	c := core.KeepSet{{PC: 9, Class: stats.CheckBounds}: true}
	if codecache.KeepFingerprint(a) == codecache.KeepFingerprint(c) {
		t.Error("different keep sets must fingerprint differently")
	}
	if codecache.KeepFingerprint(nil) != "" {
		t.Error("empty keep set must fingerprint empty")
	}
	// The rendered bytes are part of every cache key: pinned in the canonical
	// site order (inline path, then pc, class, shape).
	d := core.KeepSet{
		{PC: 9, Class: stats.CheckBounds}:                           true,
		{PC: 2, Class: stats.CheckOverflow}:                         true,
		{PC: 2, Class: stats.CheckBounds, Shape: "s2"}:              true,
		{PC: 2, Class: stats.CheckBounds, Shape: "s1"}:              true,
		{PC: 1, Class: stats.CheckBounds, Path: "g@5"}:              true,
		{PC: 7, Class: stats.CheckBounds, Path: "g@5", Shape: "s1"}: true,
	}
	want := fmt.Sprintf("2:%[1]d#s1;2:%[1]d#s2;2:%[2]d;9:%[1]d;1:%[1]d:g@5;7:%[1]d:g@5#s1;", stats.CheckBounds, stats.CheckOverflow)
	if stats.CheckBounds > stats.CheckOverflow {
		t.Fatal("test assumes CheckBounds orders before CheckOverflow")
	}
	if got := codecache.KeepFingerprint(d); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}

func TestProgramsIntern(t *testing.T) {
	progs := codecache.NewPrograms()
	a, err := progs.Load(`function run(n) { return n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := progs.Load(`function run(n) { return n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Main != b.Main {
		t.Error("identical source must intern to one entry")
	}
	c, err := progs.Load(`function run(n) { return n + 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Hash == a.Hash {
		t.Error("distinct source must intern distinctly")
	}
	if progs.Len() != 2 {
		t.Errorf("Len = %d, want 2", progs.Len())
	}
}

// TestSingleFlight: N concurrent isolates requesting the same key must
// trigger exactly one fill; everyone gets code.
func TestSingleFlight(t *testing.T) {
	c := codecache.NewCache(8)
	progs := codecache.NewPrograms()
	key := testKey(t, progs, 1)
	realm := vm.New(vm.DefaultConfig())

	var fills int64
	var wg sync.WaitGroup
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, err := c.Compile(key, realm, nil, func() (*ir.Func, error) {
				atomic.AddInt64(&fills, 1)
				time.Sleep(20 * time.Millisecond)
				return trivialFill()
			})
			if err != nil {
				errs <- err
				return
			}
			if f.Func() == nil {
				t.Error("nil code from Compile")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1 (single flight)", fills)
	}
	// Each non-winner waits on the flight and then hits the stored entry on
	// retry, so hits count all seven; waits count those that arrived before
	// the fill finished.
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats %+v: want 1 miss and %d hits", st, callers-1)
	}
}

// A failed fill must not poison the key: the next caller retries.
func TestFailedFillRetries(t *testing.T) {
	c := codecache.NewCache(8)
	progs := codecache.NewPrograms()
	key := testKey(t, progs, 2)
	realm := vm.New(vm.DefaultConfig())

	wantErr := &testError{}
	if _, _, err := c.Compile(key, realm, nil, func() (*ir.Func, error) {
		return nil, wantErr
	}); err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	f, compiled, err := c.Compile(key, realm, nil, trivialFill)
	if err != nil || f.Func() == nil || !compiled {
		t.Fatalf("retry after failed fill: f=%v compiled=%v err=%v", f, compiled, err)
	}
}

type testError struct{}

func (*testError) Error() string { return "fill failed" }

// TestLRUEviction: the cache holds `capacity` artifacts, evicts the least
// recently used, and an evicted key compiles again on next request. Exact
// global LRU order is a single-shard property (sharded caches evict per
// shard), so this pins the Shards=1 configuration; cross-shard accounting is
// covered by the sharding torture tests.
func TestLRUEviction(t *testing.T) {
	c := codecache.NewCacheSharded(2, 1)
	progs := codecache.NewPrograms()
	realm := vm.New(vm.DefaultConfig())
	var ctrs stats.Counters

	fill := func(k codecache.Key) (compiled bool) {
		t.Helper()
		_, compiled, err := c.Compile(k, realm, &ctrs, trivialFill)
		if err != nil {
			t.Fatal(err)
		}
		return compiled
	}
	k := func(fp uint64) codecache.Key { return testKey(t, progs, fp) }

	if !fill(k(10)) || !fill(k(11)) {
		t.Fatal("cold keys must compile")
	}
	if fill(k(10)) {
		t.Fatal("resident key must hit, not recompile")
	}
	// Inserting a third key evicts the LRU entry, which is 11 (10 was
	// touched above).
	if !fill(k(12)) {
		t.Fatal("third key must compile")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
	if fill(k(10)) {
		t.Error("recently used key was evicted")
	}
	if !fill(k(11)) {
		t.Error("LRU key should have been evicted and must recompile")
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if ctrs.CodeCacheEvictions != 2 || ctrs.CodeCacheHits != 2 || ctrs.CodeCacheMisses != 4 {
		t.Errorf("per-isolate attribution wrong: %+v", ctrs)
	}
}

// TestUncacheable: a donor graph embedding a reference with no portable name
// must be marked uncacheable, and every later request for the key compiles
// locally rather than sharing.
func TestUncacheable(t *testing.T) {
	c := codecache.NewCache(8)
	progs := codecache.NewPrograms()
	key := testKey(t, progs, 3)
	realm := vm.New(vm.DefaultConfig())

	unportable := func() (*ir.Func, error) {
		f := ir.NewFunc("u", nil)
		b := f.NewBlock()
		v := b.NewValue(ir.OpConst, ir.TypeInt32)
		// A closure the realm has never seen: NativeID fails and it is not
		// the canonical closure for any shared bytecode.
		v.Callee = &value.Function{Name: "orphan"}
		return f, nil
	}
	fills := 0
	counted := func() (*ir.Func, error) { fills++; return unportable() }

	for i := 0; i < 3; i++ {
		f, compiled, err := c.Compile(key, realm, nil, counted)
		if err != nil || f.Func() == nil || !compiled {
			t.Fatalf("request %d: f=%v compiled=%v err=%v", i, f, compiled, err)
		}
	}
	if fills != 3 {
		t.Errorf("uncacheable key filled %d times, want 3 (one per isolate request)", fills)
	}
	st := c.Stats()
	if st.Uncacheable != 2 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v: want 1 miss then 2 uncacheable lookups", st)
	}
}

// relocProgram tiers all the way to FTL with shape-guarded property access
// and both native and user-function call targets — the references the
// relocation manifest must carry.
const relocProgram = `
var obj = {x: 1, y: 2};
function inc(v) { return v + 1; }
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    obj.x = inc(obj.x) | 0;
    s = (s + obj.x + obj.y + Math.floor(i / 2)) | 0;
  }
  return s;
}
`

// TestShareAcrossIsolates is the end-to-end relocation check: two isolates
// of one program share a cache; the second must pull the first's artifacts
// (hits, no second FTL fill) and produce byte-identical results.
func TestShareAcrossIsolates(t *testing.T) {
	cache := codecache.NewCache(0)
	progs := codecache.NewPrograms()
	entry, err := progs.Load(relocProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap

	runOne := func() ([]string, *isolate.Isolate) {
		iso := isolate.New(cfg)
		iso.UseCache(cache)
		if err := iso.Load(entry); err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 40; i++ {
			v, err := iso.VM().CallGlobal("run", value.Int(32))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v.ToStringValue())
		}
		return out, iso
	}

	first, donor := runOne()
	ftlFills := func() int64 {
		var n int64
		for g, c := range cache.FillCounts() {
			if g.Tier == profile.TierFTL {
				n += c
			}
		}
		return n
	}
	donorFills := ftlFills()
	if donorFills == 0 {
		t.Fatal("donor never reached FTL; the program must tier up for this test to bite")
	}

	second, recipient := runOne()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("call %d: recipient %q != donor %q (relocated code misbehaves)", i, second[i], first[i])
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("recipient never hit the cache: %+v", st)
	}
	if got := ftlFills(); got != donorFills {
		t.Errorf("recipient re-ran %d FTL fills; warm isolates must share, not recompile", got-donorFills)
	}
	if recipient.VM().Counters().CodeCacheHits == 0 {
		t.Error("recipient isolate not credited with cache hits")
	}
	_ = donor
}

// TestFaultProbeFailsFill: an installed fault probe fails exactly the fills
// it chooses, the failure propagates as a fill error (transient — the next
// caller recompiles cleanly), and removing the probe restores normal
// operation. This is the seam the chaos harness' compile-fail@k point
// drives.
func TestFaultProbeFailsFill(t *testing.T) {
	c := codecache.NewCache(8)
	progs := codecache.NewPrograms()
	key := testKey(t, progs, 7)
	realm := vm.New(vm.DefaultConfig())

	plan := chaos.NewPlan(1, chaos.At(chaos.KindCompileFail, 1))
	c.SetFaultProbe(func() error {
		if plan.Arm(chaos.KindCompileFail) {
			return &chaos.CompileFault{Occurrence: plan.Armed(chaos.KindCompileFail)}
		}
		return nil
	})
	var fills int64
	counted := func() (*ir.Func, error) {
		fills++
		return trivialFill()
	}
	_, _, err := c.Compile(key, realm, nil, counted)
	var cf *chaos.CompileFault
	if !errors.As(err, &cf) {
		t.Fatalf("first compile under probe: err=%v, want CompileFault", err)
	}
	if fills != 0 {
		t.Fatalf("fill body ran %d times despite injected fault", fills)
	}
	// The fault was transient: the same key compiles on retry.
	f, compiled, err := c.Compile(key, realm, nil, counted)
	if err != nil || f.Func() == nil || !compiled || fills != 1 {
		t.Fatalf("retry after injected fault: f=%v compiled=%v fills=%d err=%v", f, compiled, fills, err)
	}
	c.SetFaultProbe(nil)
	if _, _, err := c.Compile(testKey(t, progs, 8), realm, nil, counted); err != nil {
		t.Fatalf("compile after probe removal: %v", err)
	}
	if plan.Fired(chaos.KindCompileFail) != 1 {
		t.Errorf("fired %d faults, want 1", plan.Fired(chaos.KindCompileFail))
	}
}

// Binding lowers the shared donor straight into the binding isolate's
// program: a fixed number of allocations per artifact — the lowering's —
// with no copy of the graph and no relocation tables, and the donor left as
// it was.
func TestBindAllocations(t *testing.T) {
	progs := codecache.NewPrograms()
	entry, err := progs.Load(relocProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	donor, recipient := isolate.New(cfg), isolate.New(cfg)
	for _, iso := range []*isolate.Isolate{donor, recipient} {
		if err := iso.Load(entry); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := donor.VM().CallGlobal("run", value.Int(32)); err != nil {
			t.Fatal(err)
		}
	}
	relocated := 0
	for _, f := range donor.Backend().CompiledFunctions() {
		man, ok := codecache.Extract(f, donor.VM())
		if !ok {
			t.Fatalf("%s: uncacheable", f.Name)
		}
		relocated += len(man.Shapes) + len(man.Callees) + len(man.Inlines)
		before := f.String()
		art := codecache.NewArtifact(f, profile.TierFTL, man)
		if _, ok := art.Bind(recipient.VM()); !ok {
			t.Fatalf("%s: bind failed", f.Name)
		}
		if n := testing.AllocsPerRun(20, func() { art.Bind(recipient.VM()) }); n > 3 {
			t.Errorf("%s: Bind costs %v allocations, want at most 3", f.Name, n)
		}
		if f.String() != before {
			t.Errorf("%s: binding changed the shared donor", f.Name)
		}
	}
	if relocated == 0 {
		t.Fatal("no artifact carries a reference to relocate; the test would not bite")
	}
}
