package codecache_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/codecache"
	"nomap/internal/harness"
	"nomap/internal/isolate"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// fingerprintFixture is a realm holding three user functions and a handful
// of portable shapes. Its base profile sets every feedback field: one site
// per array, and two ways per histogram with distinct counts.
type fingerprintFixture struct {
	realm        *vm.VM
	f, g         *value.Function
	sx, sy, sz   *value.Shape
	sxy, syz     *value.Shape
	alternatives map[reflect.Type]reflect.Value // a value no base field holds, per pointer type
}

func newFingerprintFixture(t *testing.T) *fingerprintFixture {
	t.Helper()
	v := vm.New(vm.DefaultConfig())
	main, err := vm.CompileSource(`function f(a) { return a; } function g(a) { return a; } function h(a) { return a; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunMain(main); err != nil {
		t.Fatal(err)
	}
	st := v.Shapes()
	x := &fingerprintFixture{
		realm: v,
		f:     v.FunctionFor(main.Funcs[0]),
		g:     v.FunctionFor(main.Funcs[1]),
		sx:    st.Transition(st.Root, "x"),
		sy:    st.Transition(st.Root, "y"),
		sz:    st.Transition(st.Root, "z"),
	}
	x.sxy = st.Transition(x.sx, "y")
	x.syz = st.Transition(x.sy, "z")
	x.alternatives = map[reflect.Type]reflect.Value{
		reflect.TypeOf(x.sx):                      reflect.ValueOf(st.Transition(x.sz, "w")),
		reflect.TypeOf(x.f):                       reflect.ValueOf(v.FunctionFor(main.Funcs[2])),
		reflect.TypeOf((*bytecode.Function)(nil)): reflect.ValueOf(main.Funcs[2]),
	}
	return x
}

func (x *fingerprintFixture) base() *profile.FunctionProfile {
	p := profile.New(&bytecode.Function{Name: "t", Code: make([]bytecode.Instr, 1), NumICs: 1})
	p.InvocationCount, p.BackEdgeCount, p.Deopts, p.CompileFailures = 100, 5000, 2, 1
	p.Arith[0] = profile.ArithFeedback{SawInt32: true, Count: 7}
	p.Elem[0] = profile.ElemFeedback{SawArray: true, Count: 9}
	p.Calls[0] = profile.CallFeedback{Target: x.f, RecvShape: x.sx, Count: 3, Ways: []profile.CallWay{
		{Target: x.f, Recv: x.sx, Count: 5},
		{Target: x.g, Recv: x.sy, Count: 2},
	}}
	p.ICs[0] = profile.PropIC{Shape: x.sx, Offset: 1, NewShape: x.sxy, Hits: 40, Misses: 2, Ways: []profile.PropWay{
		{Shape: x.sx, Offset: 0, Count: 5},
		{Shape: x.sy, Offset: 0, NewShape: x.syz, Count: 2},
	}}
	return p
}

// profileField is one field of FunctionProfile or of a feedback type nested
// in it, named Type.Field, with a locator into a profile (the first element
// of every slice on the way).
type profileField struct {
	name string
	at   func(p *profile.FunctionProfile) reflect.Value
}

func profileFields() []profileField {
	var out []profileField
	var walk func(t reflect.Type, at func(*profile.FunctionProfile) reflect.Value)
	walk = func(t reflect.Type, at func(*profile.FunctionProfile) reflect.Value) {
		for i := 0; i < t.NumField(); i++ {
			i := i
			fat := func(p *profile.FunctionProfile) reflect.Value { return at(p).Field(i) }
			out = append(out, profileField{name: t.Name() + "." + t.Field(i).Name, at: fat})
			if ft := t.Field(i).Type; ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct {
				walk(ft.Elem(), func(p *profile.FunctionProfile) reflect.Value { return fat(p).Index(0) })
			}
		}
	}
	walk(reflect.TypeOf(profile.FunctionProfile{}), func(p *profile.FunctionProfile) reflect.Value { return reflect.ValueOf(p).Elem() })
	return out
}

// TestFingerprintConsumedLatticeOnly pins the cache-key discipline: the
// profile fingerprint moves when — and only when — feedback the compilers
// consume changes. Every field of FunctionProfile and its nested feedback
// types, found by reflection, is mutated alone; it must either move the
// fingerprint or be named below as a raw count (or as an identity the key
// carries elsewhere). Raw execution counts advance every run without
// changing codegen; hashing them would make every compile point a distinct
// key and reduce the shared cache to per-isolate storage. A new field fails
// this test until it is classified.
func TestFingerprintConsumedLatticeOnly(t *testing.T) {
	notHashed := map[string]string{
		"FunctionProfile.Fn":              "identity: Key.Code",
		"FunctionProfile.BackEdgeCount":   "raw count: tier-up only",
		"FunctionProfile.Deopts":          "raw count: tier-up only",
		"FunctionProfile.CompileFailures": "raw count: tier-up only",
		"PropIC.Hits":                     "raw count: never read by a compiler",
		"PropIC.Misses":                   "raw count: never read by a compiler",
	}
	x := newFingerprintFixture(t)
	fp := codecache.FingerprintProfile(x.base(), x.realm)

	seen := map[string]bool{}
	for _, f := range profileFields() {
		seen[f.name] = true
		p := x.base()
		v := f.at(p)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			// Counts are read as Count > 0 (InvocationCount as == 0 by the
			// inliner), offsets exactly, way counts as dispatch-plan rank:
			// zeroing each one changes what a compiler reads.
			if v.Int() == 0 {
				v.SetInt(1)
			} else {
				v.SetInt(0)
			}
		case reflect.Slice:
			v.SetLen(v.Len() - 1)
		case reflect.Pointer:
			alt, ok := x.alternatives[v.Type()]
			if !ok {
				t.Fatalf("%s: no alternative value for %s", f.name, v.Type())
			}
			v.Set(alt)
		default:
			t.Fatalf("%s: unclassified kind %s", f.name, v.Kind())
		}
		moved := codecache.FingerprintProfile(p, x.realm) != fp
		if _, raw := notHashed[f.name]; raw && moved {
			t.Errorf("%s (%s) moved the fingerprint; cache keys will never repeat", f.name, notHashed[f.name])
		} else if !raw && !moved {
			t.Errorf("%s changed but the fingerprint did not: hash it, or list it as a raw count", f.name)
		}
	}
	for name := range notHashed {
		if !seen[name] {
			t.Errorf("notHashed names %s, which is no longer a profile field", name)
		}
	}

	// Every count growing at once — predicates and way ranks unchanged —
	// must not move the fingerprint either.
	p := x.base()
	for _, f := range profileFields() {
		if v := f.at(p); v.Kind() == reflect.Int64 {
			v.SetInt(v.Int() * 1000)
		}
	}
	if codecache.FingerprintProfile(p, x.realm) != fp {
		t.Error("raw counts changed the fingerprint; cache keys will never repeat")
	}
}

// TestFingerprintAllocatesNothing: the consumed projection is hashed as it
// is written — no mirror of the profile is built on the key path.
func TestFingerprintAllocatesNothing(t *testing.T) {
	x := newFingerprintFixture(t)
	p := x.base()
	profiles := func(*bytecode.Function) *profile.FunctionProfile { return p }
	if n := testing.AllocsPerRun(20, func() {
		codecache.FingerprintProfile(p, x.realm)
		codecache.InlineFingerprint(p.Fn, profiles, x.realm, 2)
	}); n != 0 {
		t.Errorf("fingerprinting allocated %.0f objects per run, want 0", n)
	}
}

// serveMix is the serving benchmark's hot-key set: the twelve AvgS kernels
// with the shortest run().
var serveMix = []string{"S19", "S12", "S16", "S04", "K13", "S10", "K11", "K12", "S01", "S06", "S05", "S15"}

type warmProgram struct {
	id    string
	entry *codecache.ProgramEntry
	iso   *isolate.Isolate
}

var (
	warmOnce sync.Once
	warmMix  []warmProgram
	warmErr  error
)

// warmServingMix loads every serving-mix kernel into its own isolate and
// calls run() 48 times under the fast tier-up policy — past the FTL
// threshold, as the serving benchmark's prewarm does. The isolates are
// shared by the tests below and must not be mutated.
func warmServingMix(t testing.TB) []warmProgram {
	t.Helper()
	warmOnce.Do(func() {
		cfg := vm.DefaultConfig()
		cfg.Arch = vm.ArchNoMap
		cfg.Policy = harness.FastPolicy()
		progs := codecache.NewPrograms()
		for _, id := range serveMix {
			w, _ := workloads.ByID(id)
			entry, err := progs.Load(w.Source)
			if err != nil {
				warmErr = fmt.Errorf("%s: %w", id, err)
				return
			}
			iso := isolate.New(cfg)
			if err := iso.Load(entry); err != nil {
				warmErr = fmt.Errorf("%s: %w", id, err)
				return
			}
			for i := 0; i < 48; i++ {
				if _, err := iso.VM().CallGlobal("run"); err != nil {
					warmErr = fmt.Errorf("%s: %w", id, err)
					return
				}
			}
			if iso.VM().Counters().Compilations[profile.TierFTL] == 0 {
				warmErr = fmt.Errorf("%s never reached FTL", id)
				return
			}
			warmMix = append(warmMix, warmProgram{id: id, entry: entry, iso: iso})
		}
	})
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	return warmMix
}

// eachEncoding visits the full projection of every profile of every warm
// serving-mix isolate.
func eachEncoding(t *testing.T, visit func(w warmProgram, fn *bytecode.Function, p *profile.FunctionProfile, b []byte)) {
	n := 0
	for _, w := range warmServingMix(t) {
		w.iso.VM().EachProfile(func(fn *bytecode.Function, p *profile.FunctionProfile) {
			visit(w, fn, p, codecache.AppendProfile(nil, p, w.iso.VM()))
			n++
		})
	}
	if n == 0 {
		t.Fatal("no profiles visited")
	}
}

// TestProfileEncodingRoundTrip: encode → decode → encode is byte-identical
// and keeps the fingerprint for every serving-mix profile, or a restored
// isolate would miss every cache entry its donor filled; and two captures
// of the same warm isolate give identical bytes and seal.
func TestProfileEncodingRoundTrip(t *testing.T) {
	eachEncoding(t, func(w warmProgram, fn *bytecode.Function, p *profile.FunctionProfile, b []byte) {
		realm := w.iso.VM()
		q, err := codecache.DecodeProfile(b, fn, bytecode.Preorder(w.entry.Main), realm)
		if err != nil {
			t.Fatalf("%s/%s: decode: %v", w.id, fn.Name, err)
		}
		if again := codecache.AppendProfile(nil, q, realm); !bytes.Equal(again, b) {
			t.Errorf("%s/%s: re-encoding differs (%d vs %d bytes)", w.id, fn.Name, len(again), len(b))
		}
		if codecache.FingerprintProfile(q, realm) != codecache.FingerprintProfile(p, realm) {
			t.Errorf("%s/%s: fingerprint not a fixed point across decode", w.id, fn.Name)
		}
	})
	for _, w := range warmServingMix(t) {
		a, b := w.iso.Snapshot(), w.iso.Snapshot()
		if a.Seal != b.Seal || !reflect.DeepEqual(a.Profiles, b.Profiles) {
			t.Errorf("%s: two captures of one warm isolate differ", w.id)
		}
	}
}

// TestProfileDecodeTotal: every truncation and every single-byte flip of a
// serving-mix encoding decodes to a profile or returns an error — never a
// panic. A truncation is always an error: the encoding is self-delimiting.
func TestProfileDecodeTotal(t *testing.T) {
	scratch := map[string]*isolate.Isolate{}
	eachEncoding(t, func(w warmProgram, fn *bytecode.Function, _ *profile.FunctionProfile, b []byte) {
		// Damaged paths replay junk shapes: decode into a scratch isolate.
		iso := scratch[w.id]
		if iso == nil {
			iso = isolate.New(w.iso.Config())
			if err := iso.Load(w.entry); err != nil {
				t.Fatal(err)
			}
			scratch[w.id] = iso
		}
		funcs := bytecode.Preorder(w.entry.Main)
		decode := func(what string, in []byte) (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s/%s: %s: decode panicked: %v", w.id, fn.Name, what, r)
				}
			}()
			_, err = codecache.DecodeProfile(in, fn, funcs, iso.VM())
			return err
		}
		for n := 0; n < len(b); n++ {
			if decode(fmt.Sprintf("truncated to %d", n), b[:n]) == nil {
				t.Errorf("%s/%s: truncation to %d of %d bytes decoded", w.id, fn.Name, n, len(b))
			}
		}
		flipped := make([]byte, len(b))
		for i := range b {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				copy(flipped, b)
				flipped[i] ^= mask
				decode(fmt.Sprintf("byte %d ^ %#x", i, mask), flipped)
			}
		}
	})
}

// BenchmarkFingerprintProfile measures the code-cache key's profile half:
// one op fingerprints every profile of a warm relocProgram isolate.
func BenchmarkFingerprintProfile(b *testing.B) {
	progs := codecache.NewPrograms()
	entry, err := progs.Load(relocProgram)
	if err != nil {
		b.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	iso := isolate.New(cfg)
	if err := iso.Load(entry); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := iso.VM().CallGlobal("run", value.Int(32)); err != nil {
			b.Fatal(err)
		}
	}
	var profs []*profile.FunctionProfile
	iso.VM().EachProfile(func(_ *bytecode.Function, p *profile.FunctionProfile) { profs = append(profs, p) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profs {
			fingerprintSink ^= codecache.FingerprintProfile(p, iso.VM())
		}
	}
}

var fingerprintSink uint64
