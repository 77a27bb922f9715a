package governor

import (
	"hash/fnv"
	"sort"
)

// The hysteresis kit: the one reaction discipline every recovery policy in
// this package is written in — charge a ledger, trip at a budget, decay on
// clean progress, re-promote on probation with a growing window, pin — as
// three primitives. Each is a pure function of its event sequence.

// Ledger is one Trips row in exported form.
type Ledger[K comparable] struct {
	Key K
	// N is the decayed charge count; Aux is an undecayed diagnostic count
	// riding along (deopts at a kept site); On reports the key is tripped.
	N, Aux int64
	On     bool
}

// Trips is a keyed charge ledger with a tripped set. The zero value is ready
// to use and allocates nothing until the first charge.
type Trips[K comparable] struct {
	rows map[K]struct{ n, aux int64 }
	on   map[K]bool
}

// bump adds to k's counts and returns its new charge count.
func (t *Trips[K]) bump(k K, n, aux int64) int64 {
	if t.rows == nil {
		t.rows = make(map[K]struct{ n, aux int64 })
	}
	r := t.rows[k]
	r.n += n
	r.aux += aux
	t.rows[k] = r
	return r.n
}

// trip marks k tripped and reports whether it was not already.
func (t *Trips[K]) trip(k K) bool {
	if t.on[k] {
		return false
	}
	if t.on == nil {
		t.on = make(map[K]bool)
	}
	t.on[k] = true
	return true
}

// charge adds one charge to k and reports whether that charge tripped it:
// the count reached budget and k was not tripped before.
func (t *Trips[K]) charge(k K, budget int64) bool {
	return t.bump(k, 1, 0) >= budget && t.trip(k)
}

func (t *Trips[K]) count(k K) int64 { return t.rows[k].n }

func (t *Trips[K]) tripped(k K) bool { return t.on[k] }

// set returns the live tripped set, nil when empty.
func (t *Trips[K]) set() map[K]bool {
	if len(t.on) == 0 {
		return nil
	}
	return t.on
}

// decay halves every charge count. A key drained to zero is un-tripped unless
// the ledger is sticky, and its row is forgotten once nothing is left on it.
func (t *Trips[K]) decay(sticky bool) {
	for k, r := range t.rows {
		r.n /= 2
		if r.n == 0 && !sticky {
			delete(t.on, k)
		}
		if r.n == 0 && r.aux == 0 && !t.on[k] {
			delete(t.rows, k)
		} else {
			t.rows[k] = r
		}
	}
}

// export renders the rows ordered by less; every tripped key has a row.
func (t *Trips[K]) export(less func(a, b K) bool) []Ledger[K] {
	if len(t.rows) == 0 {
		return nil
	}
	out := make([]Ledger[K], 0, len(t.rows))
	for k, r := range t.rows {
		out = append(out, Ledger[K]{Key: k, N: r.n, Aux: r.aux, On: t.on[k]})
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i].Key, out[j].Key) })
	return out
}

// restore replaces the ledger with exported rows.
func (t *Trips[K]) restore(rows []Ledger[K]) {
	*t = Trips[K]{}
	for _, r := range rows {
		t.bump(r.Key, r.N, r.Aux)
		if r.On {
			t.trip(r.Key)
		}
	}
}

// Probation is the re-promotion half of a retreat ladder: a demoted owner
// earns a probe of the next rung after Window units of clean progress, the
// probe is confirmed by a second clean window, and every failed probe (or
// regression of a confirmed one) multiplies the window until the owner is
// pinned. The owner keeps the rungs themselves; snapshots embed this as is.
type Probation struct {
	Probing  bool // on a probationary run one rung above the proven one
	Pinned   bool // frozen: no further probes
	Promoted bool // the current rung was reached by a confirmed probe
	Failed   int  // failed probes and post-promotion regressions
	Window   int64
	Progress int64 // clean progress toward the next probe or confirmation
}

// clean records units of clean progress. start reports that a probe was
// earned (the owner steps up one rung), confirmed that a running probe
// survived its window (the owner's current rung is proven). atTop suppresses
// earning a probe when there is no higher rung.
func (p *Probation) clean(units int64, atTop bool) (start, confirmed bool) {
	if p.Pinned || (atTop && !p.Probing) {
		return false, false
	}
	p.Progress += units
	if p.Progress < p.Window {
		return false, false
	}
	p.Progress = 0
	if p.Probing {
		p.Probing, p.Promoted = false, true
		return false, true
	}
	p.Probing = true
	return true, false
}

// maxWindow stops window growth before the multiplication can overflow.
const maxWindow = 1 << 40

// fail ends any running probe and charges one failure: the window grows by
// backoff (saturating) and max failures pin.
func (p *Probation) fail(backoff int64, max int) {
	p.Probing = false
	p.Failed++
	if p.Window <= maxWindow {
		p.Window *= backoff
	}
	if p.Failed >= max {
		p.Pinned = true
	}
}

// pin freezes the owner at its current rung.
func (p *Probation) pin() { p.Probing, p.Pinned, p.Progress = false, true, 0 }

// XorShift64 is one step of the package's deterministic generator (also the
// shared-heap scheduler's).
func XorShift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// backoffWindow is the deterministic "randomized" retry window, in cycles: a
// draw hashed from (seed, key, draw) scaled into an envelope that starts at
// base and doubles per attempt (1-based) up to cap. The doubling loop stops
// at the cap, so no attempt count can shift the envelope out of range.
func backoffWindow(seed int64, key string, draw uint64, attempt int, base, cap int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := XorShift64(uint64(seed)*0x9E3779B97F4A7C15 + h.Sum64() + draw*0xBF58476D1CE4E5B9)
	envelope := min(base, cap)
	for i := 1; i < attempt && envelope < cap; i++ {
		if envelope > cap/2 {
			envelope = cap
		} else {
			envelope <<= 1
		}
	}
	return 1 + int64(x%uint64(envelope))
}
