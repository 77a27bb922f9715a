package codecache

import (
	"encoding/binary"
	"errors"

	"nomap/internal/bytecode"
	"nomap/internal/profile"
	"nomap/internal/value"
)

// The profile encoding is the one portable description of a
// profile.FunctionProfile: shapes are written as transition paths, callees
// as a builtin id or a program function index (bytecode.Function.Index).
// One walk, the codec, writes the full projection a snapshot stores, reads
// it back in another isolate of the program, and hashes the consumed
// projection code-cache keys use: flags, every count as Count > 0, and ways
// in dispatch-plan order. Feedback with no portable name (a non-canonical
// closure target, say) is dropped to the site's generic state here, once,
// for every use: the warm isolate then profiles that site from scratch.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// codec walks one profile in one of three modes: it writes the full
// projection onto out, hashes the consumed projection into h (FNV-1a), or
// reads a full projection from in into the profile.
type codec struct {
	realm    Realm
	consumed bool
	decoding bool
	out, in  []byte
	h        uint64
	funcs    []*bytecode.Function // decoding: the program's functions by Index
	err      error
}

// errMalformed reports a profile encoding DecodeProfile cannot read.
var errMalformed = errors.New("codecache: malformed profile encoding")

// fail records a malformed encoding; every later read returns zero values.
func (c *codec) fail() { c.err, c.in = errMalformed, nil }

// byte transfers one byte: it writes x, or returns the byte read.
func (c *codec) byte(x byte) byte {
	switch {
	case !c.decoding && c.consumed:
		c.h = (c.h ^ uint64(x)) * fnvPrime
	case !c.decoding:
		c.out = append(c.out, x)
	case len(c.in) == 0:
		c.fail()
		x = 0
	default:
		x, c.in = c.in[0], c.in[1:]
	}
	return x
}

// uint transfers x as a binary.Uvarint.
func (c *codec) uint(x uint64) uint64 {
	if !c.decoding {
		for _, b := range binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64), x) {
			c.byte(b)
		}
		return x
	}
	x, n := binary.Uvarint(c.in)
	if n <= 0 {
		c.fail()
	}
	c.in = c.in[max(n, 0):]
	return x
}

// int transfers x zigzag-encoded, as a binary.Varint.
func (c *codec) int(x int64) int64 {
	u := c.uint(uint64(x<<1) ^ uint64(x>>63))
	return int64(u>>1) ^ -int64(u&1)
}

// num transfers *n exactly.
func num[T int | int64](c *codec, n *T) {
	if v := T(c.int(int64(*n))); c.decoding {
		*n = v
	}
}

// raw transfers a raw count, which the consumed projection omits.
func (c *codec) raw(n *int64) {
	if !c.consumed {
		num(c, n)
	}
}

// count transfers a count the compilers read as Count > 0: whole in the
// full projection, as that predicate in the consumed one.
func (c *codec) count(n *int64) {
	if positive := *n > 0; c.consumed {
		c.flags(&positive)
	} else {
		num(c, n)
	}
}

// flags transfers up to eight flags as one byte; a set bit beyond them is
// malformed.
func (c *codec) flags(bs ...*bool) {
	var x byte
	for i, b := range bs {
		if *b {
			x |= 1 << i
		}
	}
	if x = c.byte(x); x>>len(bs) != 0 {
		c.fail()
	}
	for i := 0; c.decoding && i < len(bs); i++ {
		*bs[i] = x&(1<<i) != 0
	}
}

func (c *codec) str(s string) string {
	n := c.uint(uint64(len(s)))
	switch {
	case !c.decoding:
		for i := 0; i < len(s); i++ {
			c.byte(s[i])
		}
	case n > uint64(len(c.in)):
		c.fail()
	default:
		s, c.in = string(c.in[:n]), c.in[n:]
	}
	return s
}

// portable reports whether s can be named by its transition path.
func (c *codec) portable(s *value.Shape) bool {
	return s != nil && c.realm.Shapes().Holds(s)
}

// shape transfers *s as its transition path, ended by the root's empty key
// (which no path contains), or as absent when it is nil or unportable: a
// missing IC shape degrades the site to its generic path.
func (c *codec) shape(s **value.Shape) {
	present := c.portable(*s)
	switch c.flags(&present); {
	case !present:
	case !c.decoding:
		c.path(*s)
		c.str("")
	default:
		t := c.realm.Shapes()
		*s = t.Root
		for k := c.str(""); k != ""; k = c.str("") {
			*s = t.Transition(*s, k)
		}
	}
}

func (c *codec) path(s *value.Shape) {
	if s.Key != "" {
		c.path(s.Parent)
		c.str(s.Key)
	}
}

// callee transfers *fn's portable name; a nil or unportable target is
// CalleeNone, and a name the isolate cannot resolve decodes to nil.
func (c *codec) callee(fn **value.Function) {
	ref := calleeRef(*fn, c.realm)
	id := ref.Native
	if ref.Kind == CalleeCode {
		id = ref.Code.Index
	}
	kind := CalleeKind(c.byte(byte(ref.Kind)))
	if kind != CalleeNone {
		id = int(c.uint(uint64(id)))
	}
	switch {
	case !c.decoding || kind == CalleeNone:
	case kind == CalleeNative:
		*fn = c.realm.NativeByID(id)
	case kind == CalleeCode && uint(id) < uint(len(c.funcs)):
		*fn = c.realm.FunctionFor(c.funcs[id])
	default:
		c.fail()
	}
}

func (c *codec) profile(p *profile.FunctionProfile) {
	c.flags(&p.JITUnsupported)
	c.count(&p.InvocationCount)
	c.raw(&p.BackEdgeCount)
	c.raw(&p.Deopts)
	c.raw(&p.CompileFailures)
	for i := range p.Arith {
		f := &p.Arith[i]
		c.flags(&f.SawInt32, &f.SawDouble, &f.SawString, &f.SawOther, &f.SawOverflow)
		c.count(&f.Count)
	}
	for i := range p.Elem {
		f := &p.Elem[i]
		c.flags(&f.SawArray, &f.SawNonArray, &f.SawOOB, &f.SawAppend, &f.SawHole, &f.SawNonInt)
		c.count(&f.Count)
	}
	for i := range p.Calls {
		cf := &p.Calls[i]
		// An unportable target is forgotten with its count: Monomorphic()
		// then reports false and the compiler emits a generic call.
		count := cf.Count
		if cf.Target != nil && calleeRef(cf.Target, c.realm).Kind == CalleeNone {
			count = 0
		}
		c.flags(&cf.Poly, &cf.Mega)
		if c.count(&count); c.decoding {
			cf.Count = count
		}
		c.callee(&cf.Target)
		c.shape(&cf.RecvShape)
		ways(c, &cf.Ways, func(w *profile.CallWay) int64 { return w.Count }, func(w *profile.CallWay) bool {
			return calleeRef(w.Target, c.realm).Kind != CalleeNone && (w.Recv == nil || c.portable(w.Recv))
		}, func(w *profile.CallWay) {
			c.callee(&w.Target)
			c.shape(&w.Recv)
			c.raw(&w.Count)
		})
	}
	for i := range p.ICs {
		ic := &p.ICs[i]
		c.flags(&ic.Poly, &ic.SawNonObject, &ic.SawArrayLength, &ic.Mega)
		num(c, &ic.Offset)
		c.shape(&ic.Shape)
		c.shape(&ic.NewShape)
		c.raw(&ic.Hits)
		c.raw(&ic.Misses)
		ways(c, &ic.Ways, func(w *profile.PropWay) int64 { return w.Count }, func(w *profile.PropWay) bool {
			return c.portable(w.Shape) && (w.NewShape == nil || c.portable(w.NewShape))
		}, func(w *profile.PropWay) {
			num(c, &w.Offset)
			c.shape(&w.Shape)
			c.shape(&w.NewShape)
			c.raw(&w.Count)
		})
	}
}

// ways transfers a way histogram, keeping only the ways keep accepts — the
// portable ones when encoding, the resolvable ones when decoding: a lost way
// is a miss. The consumed projection lists them in dispatch order (count
// descending, first-seen among equals, as ic.PropPlan/CallPlan order them),
// so profiles whose counts rank the same ways identically hash alike.
func ways[W any](c *codec, ws *[]W, count func(*W) int64, keep func(*W) bool, way func(*W)) {
	var buf [profile.MaxWays]int
	order := buf[:0]
	for j := range *ws {
		if keep(&(*ws)[j]) {
			order = append(order, j)
		}
	}
	for i := 1; c.consumed && i < len(order); i++ {
		for j := i; j > 0 && count(&(*ws)[order[j]]) > count(&(*ws)[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	n := c.uint(uint64(len(order)))
	for _, j := range order {
		way(&(*ws)[j])
	}
	if c.decoding && n > profile.MaxWays {
		c.fail()
	}
	for ; c.decoding && n > 0 && c.err == nil; n-- {
		var w W
		if way(&w); keep(&w) {
			*ws = append(*ws, w)
		}
	}
}

// AppendProfile appends the full projection of p, encoded relative to its
// owning isolate, to b.
func AppendProfile(b []byte, p *profile.FunctionProfile, realm Realm) []byte {
	c := codec{realm: realm, out: b}
	c.profile(p)
	return c.out
}

// DecodeProfile rebuilds fn's profile from its full projection inside realm,
// naming user callees through funcs (the program's functions by Index, as
// bytecode.Preorder lists them). The result is freshly allocated; a
// malformed encoding returns an error, never a partial profile or a panic.
func DecodeProfile(b []byte, fn *bytecode.Function, funcs []*bytecode.Function, realm Realm) (*profile.FunctionProfile, error) {
	c := codec{realm: realm, decoding: true, in: b, funcs: funcs}
	p := profile.New(fn)
	if c.profile(p); len(c.in) != 0 {
		c.fail()
	}
	if c.err != nil {
		return nil, c.err
	}
	return p, nil
}

// FingerprintProfile hashes the consumed projection of p: the code-cache key
// component for the profile feedback a compile consumes. Raw counts (back
// edges, deopts, compile failures, IC hit/miss tallies, the size of any
// count) advance every run without changing codegen; hashing them would make
// every compile point a distinct key. The encoding is portable, so a donor
// and a snapshot-restored isolate with the same feedback share entries.
func FingerprintProfile(p *profile.FunctionProfile, realm Realm) uint64 {
	c := codec{realm: realm, consumed: true, h: fnvOffset}
	c.profile(p)
	return c.h
}

// InlineFingerprint hashes the feedback of every function the inlining pass
// could flatten into fn: for each call site whose feedback is monomorphic on
// a user function, and for each dispatch-tree way, the callee's program
// index and consumed projection are mixed in, recursively to the inliner's
// depth bound. Any profile change that could alter an inlining decision — a
// site going polymorphic, a callee's feedback shifting the IR built for its
// body — changes the fingerprint, so isolates share an inlined artifact only
// when they would inline identically.
func InlineFingerprint(fn *bytecode.Function, profiles func(*bytecode.Function) *profile.FunctionProfile, realm Realm, depth int) uint64 {
	c := codec{realm: realm, consumed: true, h: fnvOffset}
	c.inline(fn, profiles, depth)
	return c.h
}

func (c *codec) inline(code *bytecode.Function, profiles func(*bytecode.Function) *profile.FunctionProfile, d int) {
	if d <= 0 || profiles == nil {
		return
	}
	p := profiles(code)
	if p == nil {
		return
	}
	mix := func(pc, way int, target *value.Function) {
		if target == nil || target.IsNative() {
			return
		}
		callee, ok := target.Code.(*bytecode.Function)
		if !ok {
			return
		}
		c.uint(uint64(pc))
		c.int(int64(way))
		c.uint(uint64(callee.Index))
		cp := profiles(callee)
		present := cp != nil
		if c.flags(&present); present {
			c.profile(cp)
		}
		c.inline(callee, profiles, d-1)
	}
	for pc := range p.Calls {
		cf := &p.Calls[pc]
		if cf.Monomorphic() {
			mix(pc, -1, cf.Target)
		}
		// Dispatch-tree ways are per-way inlining candidates too: each
		// way's guard+direct-call pair is what the inliner flattens.
		for wi := range cf.Ways {
			mix(pc, wi, cf.Ways[wi].Target)
		}
	}
}
