// Package cache simulates the evaluation machine's data-cache hierarchy
// (paper §VI: Skylake i7 — 32KB 8-way L1D, 256KB 8-way L2, 64-byte lines).
// The FTL tier's memory operations are charged hit/miss latencies from this
// model, and the HTM simulator derives its capacity rules from the same
// geometry.
package cache

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	LineSize  int
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineSize * c.Ways) }

// L1DConfig is the evaluation machine's 32KB 8-way L1 data cache.
func L1DConfig() Config { return Config{SizeBytes: 32 << 10, Ways: 8, LineSize: 64} }

// L2Config is the evaluation machine's 256KB 8-way L2 cache.
func L2Config() Config { return Config{SizeBytes: 256 << 10, Ways: 8, LineSize: 64} }

// Cache is one set-associative level with LRU replacement. Its tags live in
// one sets×ways array — set i owns tags[i*ways:(i+1)*ways], its first fill[i]
// entries valid, most-recently-used first — so Reset empties it in place.
type Cache struct {
	cfg   Config
	ways  int
	tags  []uint64
	fill  []uint8
	shift uint
	mask  uint64

	Hits   int64
	Misses int64
}

// New creates a cache. A set's fill count is a byte: at most 255 ways.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	c := &Cache{cfg: cfg, ways: cfg.Ways, tags: make([]uint64, n*cfg.Ways), fill: make([]uint8, n), mask: uint64(n - 1)}
	sh := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		sh++
	}
	c.shift = sh
	return c
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// setIndex maps a line address to its set.
func (c *Cache) setIndex(line uint64) uint64 { return line & c.mask }

// LineOf returns the line address of a byte address.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.shift }

// Access touches addr, returning whether it hit. Misses install the line,
// evicting LRU.
func (c *Cache) Access(addr uint64) bool {
	line := c.LineOf(addr)
	si := c.setIndex(line)
	base := int(si) * c.ways
	n := int(c.fill[si])
	set := c.tags[base : base+n]
	for i, tag := range set {
		if tag == line {
			// Move to front (LRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.Hits++
			return true
		}
	}
	c.Misses++
	if n < c.ways {
		n++
		c.fill[si] = uint8(n)
		set = c.tags[base : base+n]
	}
	copy(set[1:], set)
	set[0] = line
	return false
}

// Reset clears contents and statistics in place.
func (c *Cache) Reset() {
	clear(c.fill)
	c.Hits, c.Misses = 0, 0
}

// Hierarchy is the two-level data hierarchy with the paper's latency model:
// L1 hits are covered by the base instruction cost; L1 misses that hit L2
// add L2Penalty cycles; L2 misses add MemPenalty cycles.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	// Latencies in cycles beyond the base op cost.
	L2Penalty  int64
	MemPenalty int64
}

// NewHierarchy builds the evaluation machine's hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:         New(L1DConfig()),
		L2:         New(L2Config()),
		L2Penalty:  10,
		MemPenalty: 40,
	}
}

// Access simulates one data access and returns the extra latency in cycles.
func (h *Hierarchy) Access(addr uint64) int64 {
	if h.L1.Access(addr) {
		return 0
	}
	if h.L2.Access(addr) {
		return h.L2Penalty
	}
	return h.MemPenalty
}

// Reset clears both levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
}
