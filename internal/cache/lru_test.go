package cache

import (
	"math/rand"
	"testing"
)

// one-set geometry: every line maps to set 0, so eviction order is the pure
// LRU order with no set-index interference.
func oneSet(ways int) Config { return Config{SizeBytes: ways * 64, Ways: ways, LineSize: 64} }

// TestEvictionOrder pins the exact victim sequence: lines are evicted in
// least-recently-USED order (not insertion order), one per overflowing
// access, and touching a resident line reorders the queue. After the fill
// 0,1,2,3 and touches of 1 then 0 the recency order (MRU first) is 0,1,3,2,
// so successive overflows must evict 2, then 3, then 1, then 0.
func TestEvictionOrder(t *testing.T) {
	victims := []uint64{2, 3, 1, 0}
	for n := range victims {
		// Fresh cache per step: probing mutates LRU state, so each victim
		// count gets its own reconstruction of the schedule.
		c := New(oneSet(4))
		for i := 0; i < 4; i++ {
			c.Access(uint64(i * 64))
		}
		c.Access(1 * 64)
		c.Access(0 * 64)
		for k := 0; k <= n; k++ {
			if c.Access(uint64((10 + k) * 64)) {
				t.Fatalf("overflow line %d must miss", 10+k)
			}
		}
		// Probe survivors first (hits keep them resident), evicted lines
		// last (each such probe must miss regardless of the reinstalls the
		// earlier probes caused, since all probed lines are distinct).
		for _, l := range []uint64{0, 1, 2, 3} {
			if !contains(victims[:n+1], l) && !c.Access(l*64) {
				t.Errorf("after %d overflows line %d should survive", n+1, l)
			}
		}
		for _, l := range victims[:n+1] {
			if c.Access(l * 64) {
				t.Errorf("after %d overflows line %d should be evicted", n+1, l)
			}
		}
	}
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestCapacityOne: a direct-mapped single-line cache must thrash on
// alternation and hit on repetition — the degenerate geometry that breaks
// off-by-one bugs in way handling.
func TestCapacityOne(t *testing.T) {
	c := New(oneSet(1))
	if c.Access(0) {
		t.Fatal("cold miss expected")
	}
	if !c.Access(0) {
		t.Fatal("repeat must hit")
	}
	if c.Access(64) {
		t.Fatal("conflicting line must miss")
	}
	if c.Access(0) {
		t.Fatal("original line must have been evicted")
	}
	if !c.Access(0) {
		t.Fatal("re-installed line must hit")
	}
	if c.Hits != 2 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", c.Hits, c.Misses)
	}
}

// TestReuseAfterReset: a Reset cache must behave access-for-access like a
// brand new one — same hit/miss sequence, same counters — so recycled
// isolates (which Reset their machine state) are indistinguishable from
// fresh ones.
func TestReuseAfterReset(t *testing.T) {
	trace := []uint64{0, 64, 128, 0, 192, 256, 64, 0, 320, 128}
	run := func(c *Cache) (string, int64, int64) {
		var pattern []byte
		for _, a := range trace {
			if c.Access(a) {
				pattern = append(pattern, 'H')
			} else {
				pattern = append(pattern, 'M')
			}
		}
		return string(pattern), c.Hits, c.Misses
	}

	fresh := New(oneSet(4))
	wantPattern, wantHits, wantMisses := run(fresh)

	used := New(oneSet(4))
	for i := 0; i < 100; i++ {
		used.Access(uint64(i * 64))
	}
	used.Reset()
	if used.Hits != 0 || used.Misses != 0 {
		t.Fatal("Reset must clear statistics")
	}
	gotPattern, gotHits, gotMisses := run(used)
	if gotPattern != wantPattern || gotHits != wantHits || gotMisses != wantMisses {
		t.Fatalf("reset cache diverges from fresh: %s (%d/%d) vs %s (%d/%d)",
			gotPattern, gotHits, gotMisses, wantPattern, wantHits, wantMisses)
	}
}

// TestHierarchyResetMatchesFresh: a Hierarchy emptied in place by Reset,
// after random traffic that fills and evicts both levels, gives the same
// latency for every access of a random stream as a freshly built one.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Addresses in a window four times the L2, clustered so both hits and
	// evictions occur at every level.
	addr := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Intn(1 << 20))
		}
		return uint64(rng.Intn(16 << 10))
	}
	used := NewHierarchy()
	for round := 0; round < 4; round++ {
		for i := 0; i < 20000; i++ {
			used.Access(addr())
		}
		used.Reset()
		fresh := NewHierarchy()
		for i := 0; i < 20000; i++ {
			a := addr()
			if got, want := used.Access(a), fresh.Access(a); got != want {
				t.Fatalf("round %d access %d (%#x): reset hierarchy %d cycles, fresh %d", round, i, a, got, want)
			}
		}
		if used.L1.Hits != fresh.L1.Hits || used.L2.Misses != fresh.L2.Misses {
			t.Fatalf("round %d: counters diverge: L1 hits %d/%d, L2 misses %d/%d",
				round, used.L1.Hits, fresh.L1.Hits, used.L2.Misses, fresh.L2.Misses)
		}
	}
}
