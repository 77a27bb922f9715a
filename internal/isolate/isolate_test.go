package isolate

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/codecache"
	"nomap/internal/core"
	"nomap/internal/governor"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
	"nomap/internal/vm"
)

// seedProgram's observable behaviour depends on both RandomSeed (Math.random
// drives the accumulator) and MaxCallDepth (the recursive probe overflows a
// small stack), so any reset path that fails to re-apply the configured
// values diverges visibly.
const seedProgram = `
var hits = 0;
function rec(n) { return n < 100 ? rec(n + 1) : n; }
function run(k) {
  var s = 0;
  for (var i = 0; i < 50; i++) {
    if (Math.random() < 0.5) { hits = hits + 1; }
    s = (s + hits) | 0;
  }
  return s;
}
`

type runRecord struct {
	results  []string
	output   []string
	recErr   string
	counters any
}

func record(t *testing.T, iso *Isolate, entry *codecache.ProgramEntry) runRecord {
	t.Helper()
	if err := iso.Load(entry); err != nil {
		t.Fatal(err)
	}
	var r runRecord
	for i := 0; i < 20; i++ {
		v, err := iso.VM().CallGlobal("run", value.Int(int32(i)))
		if err != nil {
			t.Fatal(err)
		}
		r.results = append(r.results, v.ToStringValue())
	}
	// The recursion probe must fail identically on every run: a recycled
	// isolate that silently reverted MaxCallDepth to the default would
	// succeed here instead.
	if _, err := iso.VM().CallGlobal("rec", value.Int(0)); err != nil {
		r.recErr = err.Error()
	}
	r.output = append([]string(nil), iso.VM().Output...)
	c := *iso.VM().Counters()
	r.counters = c
	return r
}

// TestRecycledIsolateDeterminism is the PR 2-style regression guard for the
// reset path: an isolate that has served a tenant and been Reset must be
// bit-for-bit indistinguishable — results, prints, error behaviour, and
// counters — from a freshly constructed isolate with the same config,
// including non-default RandomSeed and MaxCallDepth.
func TestRecycledIsolateDeterminism(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	cfg.RandomSeed = 0xDECAFBAD
	cfg.MaxCallDepth = 64

	progs := codecache.NewPrograms()
	entry, err := progs.Load(seedProgram)
	if err != nil {
		t.Fatal(err)
	}
	other, err := progs.Load(`function run(n) { var a = []; for (var i = 0; i < n; i++) a[i] = Math.random(); return a.length; }`)
	if err != nil {
		t.Fatal(err)
	}

	want := record(t, New(cfg), entry)
	if want.recErr == "" {
		t.Fatal("recursion probe did not overflow: MaxCallDepth not applied on construction")
	}

	// Recycle an isolate that ran a different random-consuming program (so a
	// leaked RNG position would shift every draw).
	used := New(cfg)
	if err := used.Load(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := used.VM().CallGlobal("run", value.Int(17)); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset()
	got := record(t, used, entry)

	if !reflect.DeepEqual(got.results, want.results) {
		t.Errorf("recycled results diverge:\n got %v\nwant %v", got.results, want.results)
	}
	if !reflect.DeepEqual(got.output, want.output) {
		t.Errorf("recycled output diverges")
	}
	if got.recErr != want.recErr {
		t.Errorf("recursion limit differs after Reset: %q vs %q", got.recErr, want.recErr)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Errorf("recycled counters diverge:\n got %+v\nwant %+v", got.counters, want.counters)
	}
}

// leakyTenant tampers with every part of the builtin realm a program can
// reach: it overwrites a native and a constant on Math, nulls a native on
// String, sets a property on a native's function object, shadows a native
// global, adds globals, and builds literals whose keys follow Math's own
// transitions, sharing and then extending them.
const leakyTenant = `
Math.floor = function() { return 7; };
Math.PI = 3;
String.fromCharCode = null;
print.x = 1;
var parseInt = 5;
var extra1 = 1;
var lit = {abs: 1, floor: 2, ceil: 3};
var off = {abs: 1, zzz: 2};
Math.extra = 4;
function run(k) {
  var o = {abs: k, floor: 2, sqrt: 3, other: 4};
  extra2 = k;
  return Math.floor(k) + Math.PI + parseInt + print.x + o.other;
}
`

// realmProbe reads everything leakyTenant tampers with and builds the same
// literals, so any leak shows in its results, output or shapes.
const realmProbe = `
var lit = {abs: 1, floor: 2};
var off = {abs: 1, zzz: 2};
var fresh = {y: 1};
function run(k) {
  var s = Math.floor(k + 0.5) + Math.PI + String.fromCharCode(65 + k).length + parseInt("12");
  print(typeof Math.extra, typeof print.x, typeof String.fromCharCode, typeof parseInt, s);
  var o = {abs: k, floor: 2, ceil: 3};
  var q = {abs: k, zzz: 2};
  extra2 = k;
  return s + o.ceil + q.zzz + extra2;
}
`

// TestRecycledIsolateRealm: after a tenant that tampered with the builtin
// realm, a Reset isolate runs the next program exactly as a fresh one does —
// results, output, counters, the global object's keys and every shape ID
// the program gets — so nothing of the realm leaks between tenants.
func TestRecycledIsolateRealm(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	progs := codecache.NewPrograms()
	leaky, err := progs.Load(leakyTenant)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := progs.Load(realmProbe)
	if err != nil {
		t.Fatal(err)
	}

	type realmRecord struct {
		runRecord
		globals []string
		shapes  []uint32
	}
	observe := func(iso *Isolate) realmRecord {
		r := realmRecord{runRecord: record(t, iso, probe)}
		g := iso.VM().Globals()
		r.globals = g.Shape.Keys()
		r.shapes = append(r.shapes, g.Shape.ID)
		for _, name := range []string{"lit", "off", "fresh"} {
			r.shapes = append(r.shapes, g.Get(name).Object().Shape.ID)
		}
		// The next ID the table hands out.
		r.shapes = append(r.shapes, iso.VM().Shapes().Replay([]string{"realmProbe.next"}).ID)
		return r
	}
	want := observe(New(cfg))

	used := New(cfg)
	if err := used.Load(leaky); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := used.VM().CallGlobal("run", value.Int(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if f := used.VM().Globals().Get("Math").Object().Get("floor"); !f.IsCallable() || f.Object().Fn.IsNative() {
		t.Fatal("the tampering tenant did not overwrite Math.floor")
	}
	used.Reset()
	got := observe(used)

	if !reflect.DeepEqual(got.results, want.results) {
		t.Errorf("results diverge after a tampering tenant:\n got %v\nwant %v", got.results, want.results)
	}
	if !reflect.DeepEqual(got.output, want.output) {
		t.Errorf("output diverges after a tampering tenant:\n got %q\nwant %q", got.output, want.output)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Errorf("counters diverge after a tampering tenant:\n got %+v\nwant %+v", got.counters, want.counters)
	}
	if !reflect.DeepEqual(got.globals, want.globals) {
		t.Errorf("global keys diverge after a tampering tenant:\n got %v\nwant %v", got.globals, want.globals)
	}
	if !reflect.DeepEqual(got.shapes, want.shapes) {
		t.Errorf("shape IDs diverge after a tampering tenant: got %v, want %v", got.shapes, want.shapes)
	}
}

// TestLoadRequiresFreshIsolate: loading over a live tenant must be refused.
func TestLoadRequiresFreshIsolate(t *testing.T) {
	progs := codecache.NewPrograms()
	entry, err := progs.Load(seedProgram)
	if err != nil {
		t.Fatal(err)
	}
	iso := New(vm.DefaultConfig())
	if err := iso.Load(entry); err != nil {
		t.Fatal(err)
	}
	if err := iso.Load(entry); err == nil {
		t.Error("second Load without Reset must error")
	}
	iso.Reset()
	if err := iso.Load(entry); err != nil {
		t.Errorf("Load after Reset: %v", err)
	}
}

// TestSnapshotWarmStart: a restored isolate's observable behaviour must be
// byte-identical to a cold isolate's, while its warmup work (FTL compiles)
// drops to zero when the shared code cache holds the donor's artifacts.
func TestSnapshotWarmStart(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	progs := codecache.NewPrograms()
	entry, err := progs.Load(seedProgram)
	if err != nil {
		t.Fatal(err)
	}
	cache := codecache.NewCache(0)

	// Donor: run cold, capture the snapshot.
	donor := New(cfg)
	donor.UseCache(cache)
	if err := donor.Load(entry); err != nil {
		t.Fatal(err)
	}
	var cold []string
	for i := 0; i < 30; i++ {
		v, err := donor.VM().CallGlobal("run", value.Int(int32(i)))
		if err != nil {
			t.Fatal(err)
		}
		cold = append(cold, v.ToStringValue())
	}
	snap := donor.Snapshot()
	if captured(snap) == 0 {
		t.Fatal("snapshot captured no profiles")
	}

	// Warm: restore, then run the same calls.
	warm := New(cfg)
	warm.UseCache(cache)
	if err := warm.Load(entry); err != nil {
		t.Fatal(err)
	}
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		v, err := warm.VM().CallGlobal("run", value.Int(int32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := v.ToStringValue(); got != cold[i] {
			t.Fatalf("call %d: warm %q != cold %q", i, got, cold[i])
		}
	}
	wc := warm.VM().Counters()
	if wc.SnapshotRestores != 1 {
		t.Errorf("SnapshotRestores = %d, want 1", wc.SnapshotRestores)
	}
	if ftl := wc.Compilations[cfg.MaxTier]; ftl != 0 {
		t.Errorf("warm isolate ran %d top-tier compiles; should pull them all from the cache", ftl)
	}
	if wc.CodeCacheHits == 0 {
		t.Error("warm isolate never hit the shared cache")
	}

	// Restoring a snapshot of a different program must be refused.
	otherEntry, err := progs.Load(`function run(n) { return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	stranger := New(cfg)
	if err := stranger.Load(otherEntry); err != nil {
		t.Fatal(err)
	}
	if err := stranger.Restore(snap); err == nil {
		t.Error("cross-program restore must error")
	}
}

// TestStoreSaveOnce: the snapshot store keeps the first capture and counts
// hits/misses.
func TestStoreSaveOnce(t *testing.T) {
	progs := codecache.NewPrograms()
	entry, err := progs.Load(seedProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	k := KeyFor(cfg, entry)

	st := NewStore()
	if s := st.Get(k); s != nil {
		t.Fatal("empty store returned a snapshot")
	}
	first := &Snapshot{Program: entry}
	second := &Snapshot{Program: entry}
	if !st.SaveOnce(k, first) {
		t.Fatal("first save must win")
	}
	if st.SaveOnce(k, second) {
		t.Fatal("second save must be ignored")
	}
	if got := st.Get(k); got != first {
		t.Error("store must return the first capture")
	}
	// A differently configured isolate must not see this snapshot.
	cfg2 := cfg
	cfg2.RandomSeed = 42
	if s := st.Get(KeyFor(cfg2, entry)); s != nil {
		t.Error("snapshot leaked across configurations")
	}
	stats := st.Stats()
	if stats.Size != 1 || stats.Hits != 1 || stats.Misses != 2 {
		t.Errorf("store stats = %+v", stats)
	}
}

// TestSealCoversEveryLedgerField: changing any one field of a governor
// ledger entry — every FuncSnap field, down to each ledger's key, counts and
// flag — changes the seal. The fields are found by reflection, so a field
// added to FuncSnap and left out of the seal fails here.
func TestSealCoversEveryLedgerField(t *testing.T) {
	site := func(pc int) core.CheckSite {
		return core.CheckSite{PC: pc, Class: stats.CheckType, Path: "f@3", Shape: "s"}
	}
	snapshot := func() *Snapshot {
		return &Snapshot{Gov: governor.Snapshot{
			{Fn: "f", Level: core.TxLoopNest, Proven: core.TxLoopNest,
				Probation:  governor.Probation{Failed: 1, Window: 2, Progress: 3},
				SinceDecay: 4,
				Sites:      []governor.Ledger[core.CheckSite]{{Key: site(5), N: 6, Aux: 7}},
				Dispatch:   []governor.Ledger[core.CheckSite]{{Key: site(8), N: 9, Aux: 10, On: true}},
				OSR:        []governor.Ledger[int]{{Key: 11, N: 12, Aux: 13}}},
			{Fn: "g"},
		}}
	}
	base := snapshot().seal()
	// leaves visits every scalar field under v, in a fixed order.
	var leaves func(v reflect.Value, visit func(reflect.Value))
	leaves = func(v reflect.Value, visit func(reflect.Value)) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				leaves(v.Field(i), visit)
			}
		case reflect.Slice:
			for i := range v.Len() {
				leaves(v.Index(i), visit)
			}
		default:
			visit(v)
		}
	}
	for k := 0; ; k++ {
		s, i, name := snapshot(), 0, ""
		leaves(reflect.ValueOf(&s.Gov[0]).Elem(), func(v reflect.Value) {
			if i++; i-1 != k {
				return
			}
			name = v.Type().String()
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 100)
			case reflect.Uint8:
				v.SetUint(v.Uint() + 1)
			case reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Fatalf("field %d: unhandled kind %v", k, v.Kind())
			}
		})
		if name == "" {
			if k < 20 {
				t.Fatalf("visited only %d fields", k)
			}
			break
		}
		if s.seal() == base {
			t.Errorf("changing FuncSnap field %d (%s) leaves the seal unchanged", k, name)
		}
	}
	// Moving a string's bytes across a field boundary changes it too.
	s := snapshot()
	s.Gov[0].Sites[0].Key.Path, s.Gov[0].Sites[0].Key.Shape = "f@3s", ""
	if s.seal() == base {
		t.Error("the seal must keep adjacent strings apart")
	}
	if n := testing.AllocsPerRun(20, func() { s.seal() }); n != 0 {
		t.Errorf("seal allocates %v, want 0", n)
	}
}

// TestSnapshotSealRejectsCorruption: a snapshot damaged in flight must be
// refused by Restore with ErrSnapshotCorrupt (counted in SnapshotRejects),
// while the undamaged original still restores — the property the pool's
// snapshot-corrupt chaos point relies on to guarantee a corrupt warm start
// degrades to a cold one instead of installing wrong feedback.
func TestSnapshotSealRejectsCorruption(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	progs := codecache.NewPrograms()
	entry, err := progs.Load(seedProgram)
	if err != nil {
		t.Fatal(err)
	}
	donor := New(cfg)
	if err := donor.Load(entry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := donor.VM().CallGlobal("run", value.Int(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := donor.Snapshot()
	if captured(snap) == 0 {
		t.Fatal("snapshot captured no profiles")
	}
	bad := snap.CorruptCopy()

	victim := New(cfg)
	if err := victim.Load(entry); err != nil {
		t.Fatal(err)
	}
	err = victim.Restore(bad)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Restore(corrupt) = %v, want ErrSnapshotCorrupt", err)
	}
	if got := victim.VM().Counters().SnapshotRejects; got != 1 {
		t.Errorf("SnapshotRejects = %d, want 1", got)
	}
	if got := victim.VM().Counters().SnapshotRestores; got != 0 {
		t.Errorf("SnapshotRestores = %d after a rejected restore", got)
	}
	// The original is untouched by CorruptCopy and still verifies.
	if err := victim.Restore(snap); err != nil {
		t.Fatalf("original snapshot rejected after CorruptCopy: %v", err)
	}
}

// captured counts the profiles a snapshot holds.
func captured(s *Snapshot) int {
	n := 0
	for _, b := range s.Profiles {
		if b != nil {
			n++
		}
	}
	return n
}

// TestRestoreRejectsUndecodableSnapshot: a snapshot whose seal verifies but
// whose profile bytes do not decode is refused as ErrSnapshotCorrupt and
// counted in SnapshotRejects, and nothing from it is installed.
func TestRestoreRejectsUndecodableSnapshot(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	progs := codecache.NewPrograms()
	entry, err := progs.Load(seedProgram)
	if err != nil {
		t.Fatal(err)
	}
	donor := New(cfg)
	if err := donor.Load(entry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := donor.VM().CallGlobal("run", value.Int(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := donor.Snapshot()
	bad := *snap
	bad.Profiles = append([][]byte(nil), snap.Profiles...)
	for i, b := range bad.Profiles {
		if b != nil {
			bad.Profiles[i] = b[:len(b)-1]
		}
	}
	bad.Seal = bad.seal()

	victim := New(cfg)
	if err := victim.Load(entry); err != nil {
		t.Fatal(err)
	}
	if err := victim.Restore(&bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Restore(undecodable) = %v, want ErrSnapshotCorrupt", err)
	}
	c := victim.VM().Counters()
	if c.SnapshotRejects != 1 || c.SnapshotRestores != 0 {
		t.Errorf("SnapshotRejects = %d, SnapshotRestores = %d; want 1, 0", c.SnapshotRejects, c.SnapshotRestores)
	}
	victim.VM().EachProfile(func(fn *bytecode.Function, p *profile.FunctionProfile) {
		if p.InvocationCount > 0 && fn.Name == "run" {
			t.Errorf("rejected snapshot installed %s's profile", fn.Name)
		}
	})
}

// sameNameProgram has two functions of one name ("<anonymous>"), so a
// snapshot ordered by name alone would depend on map iteration order.
const sameNameProgram = `
var inc = function(x) { return x + 1; };
var dbl = function(x) { return x * 2; };
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = (inc(s) + dbl(i)) | 0; }
  return s;
}
`

// TestSnapshotDeterministic: repeated captures of one warm isolate give
// identical profile bytes and seal, even with same-named functions.
func TestSnapshotDeterministic(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	for src, want := range map[string]int{seedProgram: 2, sameNameProgram: 4} {
		progs := codecache.NewPrograms()
		entry, err := progs.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		iso := New(cfg)
		if err := iso.Load(entry); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := iso.VM().CallGlobal("run", value.Int(int32(i))); err != nil {
				t.Fatal(err)
			}
		}
		first := iso.Snapshot()
		if captured(first) != want {
			t.Fatalf("captured %d profiles, want %d: every function run", captured(first), want)
		}
		for k := 0; k < 8; k++ {
			again := iso.Snapshot()
			if again.Seal != first.Seal || !reflect.DeepEqual(again.Profiles, first.Profiles) {
				t.Fatalf("capture %d differs from the first", k+1)
			}
		}
	}
}

// BenchmarkSnapshotRestore measures the warm-start round trip a pool worker
// pays: one op captures a warm isolate's snapshot and restores it into a
// loaded isolate of the same program.
func BenchmarkSnapshotRestore(b *testing.B) {
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	progs := codecache.NewPrograms()
	entry, err := progs.Load(sameNameProgram)
	if err != nil {
		b.Fatal(err)
	}
	donor, warm := New(cfg), New(cfg)
	for _, iso := range []*Isolate{donor, warm} {
		if err := iso.Load(entry); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := donor.VM().CallGlobal("run", value.Int(int32(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := warm.Restore(donor.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// resetAllocsBound caps a recycled isolate's Reset: the builtin realm's
// fresh objects, the handle slab and the governor and machine state. Before
// the realm had a template, a Reset replayed every builtin's Object.Set and
// cost 291 allocations.
const resetAllocsBound = 12

// tenantSource is a small program that adds globals and shapes, so a Reset
// after it has a tenant to undo.
const tenantSource = `var o = {abs: 1, q: 2}; Math.z = 1; function run(k) { var p = {abs: k, r: 2}; return p.r + o.q; }`

// TestResetAllocations gates isolate.Reset's allocations, each Reset
// following a tenant that extended the realm's shapes (the loads are not
// counted).
func TestResetAllocations(t *testing.T) {
	entry, err := codecache.NewPrograms().Load(tenantSource)
	if err != nil {
		t.Fatal(err)
	}
	iso := New(vm.DefaultConfig())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i <= runs; i++ {
		if err := iso.Load(entry); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		iso.Reset()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first Reset warms up
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	n := float64(mallocs / runs)
	t.Logf("isolate.Reset allocates %v", n)
	if n > resetAllocsBound {
		t.Errorf("isolate.Reset allocates %v, want at most %d", n, resetAllocsBound)
	}
}

// BenchmarkIsolateReset measures what a pool worker pays to recycle an
// isolate after a tenant: one op resets an isolate that ran tenantSource
// (the load itself is not timed).
func BenchmarkIsolateReset(b *testing.B) {
	entry, err := codecache.NewPrograms().Load(tenantSource)
	if err != nil {
		b.Fatal(err)
	}
	iso := New(vm.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := iso.Load(entry); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		iso.Reset()
	}
}
