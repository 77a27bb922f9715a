// Package codecache is the serving layer's shared compiled-code cache: a
// concurrency-safe, immutable store of speculative-tier artifacts that lets
// N isolates executing the same program pay for one FTL compilation instead
// of N (the system-level analogue of the paper's §V observation that the
// expensive FTL compile amortizes across many executions).
//
// The central difficulty is that compiled IR is not isolate-neutral: check
// sites embed *value.Shape pointers (hidden-class identity is pointer
// identity) and direct calls embed *value.Function pointers, both of which
// belong to one isolate's heap. The cache therefore separates each artifact
// into an immutable donor IR graph plus a relocation manifest describing
// every isolate-bound reference portably — shapes as transition paths from
// the root (replayable against any shape table), callees as either a
// builtin's creation-order identity or shared program bytecode. Binding an
// artifact into an isolate clones the graph and rewrites those references;
// a function whose references cannot be described portably is marked
// uncacheable and every isolate compiles it locally, degrading exactly to
// cold-start behaviour.
//
// Keys capture every compilation input: the function's shared bytecode
// identity (which subsumes the program hash — bytecode is interned per
// program by Programs), the architecture, the tier-up policy, the tier, the
// governor's transaction level and kept-SMP set, and a fingerprint of the
// profile feedback the compiler consumed. Two isolates that would compile
// identical code — and only those — share an entry, so a cache hit is
// observationally equivalent to a local compile.
package codecache

import (
	"container/list"
	"reflect"
	"slices"
	"sync"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ir"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Realm is the per-isolate naming context the cache relocates references
// through. *vm.VM implements it; the indirection keeps this package below
// the vm in the dependency graph.
type Realm interface {
	// Shapes is the isolate's hidden-class table.
	Shapes() *value.ShapeTable
	// NativeID returns a builtin's deterministic creation-order identity.
	NativeID(f *value.Function) (int, bool)
	// NativeByID is the inverse of NativeID in this isolate.
	NativeByID(id int) *value.Function
	// FunctionFor returns the isolate's canonical function object for a
	// shared bytecode function (nil when the program has not run here).
	FunctionFor(code *bytecode.Function) *value.Function
}

// Key identifies one compiled artifact. All fields are comparable; equal
// keys imply the compiler would produce identical code up to isolate-bound
// pointers.
type Key struct {
	// Code is the function's shared bytecode identity (program-interned).
	Code *bytecode.Function
	// Tier is the compiling tier (DFG or FTL).
	Tier profile.Tier
	// Arch is the architecture configuration (vm.Arch, widened to avoid an
	// import cycle).
	Arch uint8
	// Level is the governor's §V-C transaction placement level.
	Level core.TxLevel
	// Policy is the tier-up policy the isolate runs under.
	Policy profile.Policy
	// KeepFP fingerprints the governor's kept-SMP set for the function.
	KeepFP string
	// DemoteFP fingerprints the governor's demoted dispatch-site set: two
	// isolates share an artifact only when the same dispatch sites were
	// dropped to the generic path ("" when nothing is demoted, keeping
	// pre-IC keys unchanged).
	DemoteFP string
	// ProfFP fingerprints the profile feedback consumed by the compile.
	ProfFP uint64
	// InlineFP fingerprints the profile feedback of every transitively
	// inlinable callee (zero when inlining is off): the inliner builds callee
	// IR from callee profiles, so two isolates share an artifact only when
	// those profiles would steer its inlining identically.
	InlineFP uint64
	// OSR is the artifact's OSR-entry loop-header pc, or -1 for an
	// invocation-entry artifact. OSR artifacts are cached per header: the
	// same function can have one invocation-entry artifact plus one OSR
	// artifact per hot loop.
	OSR int
}

// Stats is a point-in-time snapshot of cache activity (process-wide; the
// per-isolate attribution lives in stats.Counters).
type Stats struct {
	Hits        int64 // artifact found and bound
	Misses      int64 // compiled and inserted (the single flight's winner)
	Waits       int64 // callers that waited on another isolate's compile
	Evictions   int64 // LRU evictions
	Uncacheable int64 // lookups that hit an uncacheable marker
	BindFails   int64 // hits whose relocation failed (local compile fallback)
	Compiles    int64 // fill executions (shared and local)
}

// HitRate returns hits / (hits + misses + uncacheable + bindfails).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Uncacheable + s.BindFails
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// FillGroup aggregates fill counts for reporting: the acceptance metric is
// at most one FTL compile per distinct (program function, Arch) pair once
// the cache is warm.
type FillGroup struct {
	Fn   string
	Arch uint8
	Tier profile.Tier
}

type entry struct {
	key         Key
	art         *Artifact
	uncacheable bool
	elem        *list.Element
}

type flight struct {
	done chan struct{}
}

// shard is one independent slice of the cache: its own lock, LRU list,
// entry map, in-flight table, and counters. Keys are distributed across
// shards by fingerprint hash, so isolates compiling unrelated programs never
// contend on one mutex — the lock-contention fix for high-QPS serving.
type shard struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*entry
	lru      *list.List // of *entry, most recent at front
	inflight map[Key]*flight
	stats    Stats
	fills    map[FillGroup]int64
}

// Cache is the shared compiled-artifact store: a power-of-two set of shards,
// each a bounded LRU over immutable entries with single-flight compilation
// so concurrent isolates requesting the same key trigger one fill. All
// single-flight and LRU decisions are per shard; Stats, FillCounts, and Len
// aggregate across shards, so a one-shard cache is observationally the
// pre-sharding cache.
type Cache struct {
	shards []*shard
	mask   uint64

	probeMu sync.Mutex
	probe   func() error
}

// DefaultCapacity bounds the cache when the caller passes 0.
const DefaultCapacity = 256

// DefaultShards is the shard count when the caller passes 0 to
// NewCacheSharded (and the count NewCache uses). Power of two.
const DefaultShards = 8

// NewCache creates a cache holding at most capacity artifacts, split across
// DefaultShards shards.
func NewCache(capacity int) *Cache {
	return NewCacheSharded(capacity, 0)
}

// NewCacheSharded creates a cache of the given total capacity split across
// the given number of shards (rounded up to a power of two; 0 takes
// DefaultShards, 1 is the unsharded A/B configuration). Each shard holds at
// most ceil(capacity/shards) entries, so the aggregate bound is within one
// entry per shard of the requested capacity.
func NewCacheSharded(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: per,
			entries:  make(map[Key]*entry),
			lru:      list.New(),
			inflight: make(map[Key]*flight),
			fills:    make(map[FillGroup]int64),
		}
	}
	return c
}

// Shards returns the shard count (for reporting and the A/B harness).
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor selects the shard owning key by FNV-1a over every key component.
// The shared-bytecode identity enters as its in-process pointer (stable for
// the cache's lifetime, exactly as the profile fingerprint hashes it); the
// hash only steers distribution — entry identity is full Key equality inside
// the shard's map.
func (c *Cache) shardFor(key Key) *shard {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(uint64(reflect.ValueOf(key.Code).Pointer()))
	mix(uint64(key.Tier) | uint64(key.Arch)<<8 | uint64(key.Level)<<16)
	mix(uint64(key.Policy.BaselineThreshold))
	mix(uint64(key.Policy.DFGThreshold))
	mix(uint64(key.Policy.FTLThreshold))
	mix(uint64(key.Policy.MaxDeopts))
	mixStr(key.KeepFP)
	mixStr(key.DemoteFP)
	mix(key.ProfFP)
	mix(key.InlineFP)
	mix(uint64(int64(key.OSR)))
	// Fold the high bits down so small shard counts still see the whole hash.
	return c.shards[(h^h>>32)&c.mask]
}

// SetFaultProbe installs (or with nil removes) a hook consulted before every
// fill execution; a non-nil error fails that compile exactly as a compiler
// error would. The chaos harness injects transient compile failures here —
// the analogue of htm.CapacityProbe for the compilation pipeline. Production
// paths never install one.
func (c *Cache) SetFaultProbe(f func() error) {
	c.probeMu.Lock()
	c.probe = f
	c.probeMu.Unlock()
}

// wrapFill interposes the fault probe (when installed) on a fill closure.
func (c *Cache) wrapFill(fill func() (*ir.Func, error)) func() (*ir.Func, error) {
	c.probeMu.Lock()
	probe := c.probe
	c.probeMu.Unlock()
	if probe == nil {
		return fill
	}
	return func() (*ir.Func, error) {
		if err := probe(); err != nil {
			return nil, err
		}
		return fill()
	}
}

// Stats returns a snapshot of the process-wide counters, summed across
// shards.
func (c *Cache) Stats() Stats {
	var total Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Waits += st.Waits
		total.Evictions += st.Evictions
		total.Uncacheable += st.Uncacheable
		total.BindFails += st.BindFails
		total.Compiles += st.Compiles
	}
	return total
}

// ShardStats returns each shard's counters (for the balance diagnostics and
// the torture test's per-shard invariants).
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// FillCounts returns how many times each (function, arch, tier) group was
// actually compiled (shared fills and uncacheable local compiles alike).
func (c *Cache) FillCounts() map[FillGroup]int64 {
	out := make(map[FillGroup]int64)
	for _, s := range c.shards {
		s.mu.Lock()
		for g, n := range s.fills {
			out[g] += n
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of resident entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// ShardLens returns each shard's resident-entry count.
func (c *Cache) ShardLens() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.lru.Len()
		s.mu.Unlock()
	}
	return out
}

func (s *shard) noteFill(key Key) {
	s.stats.Compiles++
	s.fills[FillGroup{Fn: key.Code.Name, Arch: key.Arch, Tier: key.Tier}]++
}

// LookupStatus reports what a non-blocking Lookup found.
type LookupStatus uint8

const (
	// LookupMiss: no entry and no fill in flight — the caller should
	// schedule a background compile and run at its current-best tier.
	LookupMiss LookupStatus = iota
	// LookupHit: an artifact was found and bound.
	LookupHit
	// LookupInflight: another isolate is compiling this key right now; the
	// artifact will appear without any further action.
	LookupInflight
	// LookupUncacheable: the key is marked uncacheable — it will never be
	// served from the cache and the caller must compile locally.
	LookupUncacheable
	// LookupBindFail: an artifact exists but cannot be relocated into this
	// isolate; the caller must compile locally.
	LookupBindFail
)

// Lookup is the non-blocking read path for the off-request-path compile
// queue: it returns a bound artifact on a hit but never fills and never
// waits on another isolate's fill. ctrs, when non-nil, receives per-isolate
// hit attribution (misses are not charged — the eventual background fill
// charges its own isolate).
func (c *Cache) Lookup(key Key, realm Realm, ctrs *stats.Counters) (*ir.Func, LookupStatus) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		if e.uncacheable {
			s.mu.Unlock()
			return nil, LookupUncacheable
		}
		s.lru.MoveToFront(e.elem)
		art := e.art
		s.mu.Unlock()
		if bound, ok := art.Bind(realm); ok {
			s.mu.Lock()
			s.stats.Hits++
			s.mu.Unlock()
			if ctrs != nil {
				ctrs.CodeCacheHits++
			}
			return bound, LookupHit
		}
		return nil, LookupBindFail
	}
	_, inflight := s.inflight[key]
	s.mu.Unlock()
	if inflight {
		return nil, LookupInflight
	}
	return nil, LookupMiss
}

// Compile returns code for key bound to realm, compiling via fill at most
// once per key across all isolates (uncacheable functions excepted). The
// returned bool reports whether this caller executed fill — the signal the
// JIT uses to charge a compilation to its isolate. ctrs, when non-nil,
// receives the per-isolate hit/miss attribution.
func (c *Cache) Compile(key Key, realm Realm, ctrs *stats.Counters, fill func() (*ir.Func, error)) (*ir.Func, bool, error) {
	fill = c.wrapFill(fill)
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			if e.uncacheable {
				s.stats.Uncacheable++
				s.noteFill(key)
				s.mu.Unlock()
				if ctrs != nil {
					ctrs.CodeCacheMisses++
				}
				f, err := fill()
				return f, err == nil, err
			}
			s.lru.MoveToFront(e.elem)
			art := e.art
			s.mu.Unlock()
			if bound, ok := art.Bind(realm); ok {
				s.mu.Lock()
				s.stats.Hits++
				s.mu.Unlock()
				if ctrs != nil {
					ctrs.CodeCacheHits++
				}
				return bound, false, nil
			}
			// The isolate cannot resolve the manifest (its program state
			// lacks the referenced functions); compile locally.
			s.mu.Lock()
			s.stats.BindFails++
			s.noteFill(key)
			s.mu.Unlock()
			if ctrs != nil {
				ctrs.CodeCacheMisses++
			}
			f, err := fill()
			return f, err == nil, err
		}
		if fl, ok := s.inflight[key]; ok {
			s.stats.Waits++
			s.mu.Unlock()
			<-fl.done
			continue // the winner stored an entry (or failed; retry fills)
		}
		fl := &flight{done: make(chan struct{})}
		s.inflight[key] = fl
		s.mu.Unlock()

		f, err := fill()

		s.mu.Lock()
		delete(s.inflight, key)
		if err != nil {
			s.mu.Unlock()
			close(fl.done)
			return nil, true, err
		}
		e := &entry{key: key}
		if man, ok := Extract(f, realm); ok {
			e.art = &Artifact{donor: f, man: man}
		} else {
			e.uncacheable = true
		}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.stats.Misses++
		s.noteFill(key)
		evicted := int64(0)
		for s.lru.Len() > s.capacity {
			back := s.lru.Back()
			old := back.Value.(*entry)
			s.lru.Remove(back)
			delete(s.entries, old.key)
			s.stats.Evictions++
			evicted++
		}
		s.mu.Unlock()
		close(fl.done)
		if ctrs != nil {
			ctrs.CodeCacheMisses++
			ctrs.CodeCacheEvictions += evicted
		}
		return f, true, nil
	}
}

// ProgramEntry is one interned program: source, its hash, and the compiled
// top-level bytecode. The bytecode (and everything it references) is
// immutable after compilation, so every isolate of the program shares the
// same *bytecode.Function pointers — the identity the code cache and the
// snapshot facility key on.
type ProgramEntry struct {
	Source string
	Hash   uint64
	Main   *bytecode.Function
}

// Programs interns compiled programs by source text.
type Programs struct {
	mu sync.Mutex
	m  map[string]*ProgramEntry
}

// NewPrograms creates an empty program registry.
func NewPrograms() *Programs {
	return &Programs{m: make(map[string]*ProgramEntry)}
}

// Load returns the interned entry for src, parsing and compiling it on
// first use.
func (p *Programs) Load(src string) (*ProgramEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.m[src]; ok {
		return e, nil
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	main, err := bytecode.Compile(prog)
	if err != nil {
		return nil, err
	}
	e := &ProgramEntry{Source: src, Hash: fnv64(src), Main: main}
	p.m[src] = e
	return e, nil
}

// Len returns the number of interned programs.
func (p *Programs) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// KeepFingerprint renders a kept-SMP set canonically for use in a Key.
func KeepFingerprint(keep core.KeepSet) string {
	if len(keep) == 0 {
		return ""
	}
	sites := make([]core.CheckSite, 0, len(keep))
	for s := range keep {
		sites = append(sites, s)
	}
	slices.SortFunc(sites, core.CheckSite.Compare)
	buf := make([]byte, 0, len(sites)*8)
	for _, s := range sites {
		buf = appendInt(buf, int64(s.PC))
		buf = append(buf, ':')
		buf = appendInt(buf, int64(s.Class))
		if s.Path != "" {
			buf = append(buf, ':')
			buf = append(buf, s.Path...)
		}
		if s.Shape != "" {
			buf = append(buf, '#')
			buf = append(buf, s.Shape...)
		}
		buf = append(buf, ';')
	}
	return string(buf)
}

func appendInt(b []byte, n int64) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}
