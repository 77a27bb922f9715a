package governor

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"nomap/internal/core"
	"nomap/internal/htm"
	"nomap/internal/profile"
	"nomap/internal/stats"
)

// The frozen decision transcript: three seeded event streams, one per
// recovery machine, whose every returned decision and final exported state
// are folded field by field into an FNV hash. The constants were recorded
// before the machines were re-expressed on the hysteresis kit, so a refactor
// that changes any decision — or the order, content or presence of any
// exported ledger row — fails here even when every scenario test still passes.
// The encoder names each field by hand (never %+v): the snapshot types may
// change shape, the byte stream may not.

type transcript struct{ h hash.Hash64 }

func newTranscript() *transcript { return &transcript{h: fnv.New64a()} }

func (e *transcript) int(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		e.h.Write(b[:])
	}
}

func (e *transcript) bool(vs ...bool) {
	for _, v := range vs {
		if v {
			e.h.Write([]byte{1})
		} else {
			e.h.Write([]byte{0})
		}
	}
}

func (e *transcript) str(vs ...string) {
	for _, s := range vs {
		e.int(int64(len(s)))
		e.h.Write([]byte(s))
	}
}

func (e *transcript) site(s core.CheckSite) {
	e.int(int64(s.PC), int64(s.Class))
	e.str(s.Path, s.Shape)
}

func (e *transcript) decision(d Decision) {
	e.bool(d.Recompile, d.ChargeDeopt, d.RestoredSMP, d.DemotedDispatch)
	e.int(int64(len(d.Drop)))
	e.str(d.Drop...)
}

func (e *transcript) ladder(c LadderChange) {
	e.bool(c.SteppedDown, c.ProbeStarted, c.ProbeFailed, c.Promoted, c.ShedStarted, c.ShedCleared, c.Changed())
	e.int(int64(c.Cap))
}

// rows renders one exported ledger: each row's key, charge count, diagnostic
// count and tripped flag.
func rows[K comparable](e *transcript, rows []Ledger[K], key func(K)) {
	e.int(int64(len(rows)))
	for _, r := range rows {
		key(r.Key)
		e.int(r.N, r.Aux)
		e.bool(r.On)
	}
}

// governorState renders the governor's exported state: per function the
// level machine, then the check-site, dispatch-family and OSR-header ledgers.
func (e *transcript) governorState(snap Snapshot) {
	e.int(int64(len(snap)))
	for _, fs := range snap {
		e.str(fs.Fn)
		e.int(int64(fs.Level), int64(fs.Proven))
		e.bool(fs.Probing, fs.Pinned, fs.Promoted)
		e.int(int64(fs.Failed), fs.Window, fs.Progress, fs.SinceDecay)
		rows(e, fs.Sites, e.site)
		rows(e, fs.Dispatch, e.site)
		rows(e, fs.OSR, func(pc int) { e.int(int64(pc)) })
	}
}

func (e *transcript) resilienceState(s ResilienceSnap) {
	e.int(int64(s.Cap), int64(s.Proven))
	e.bool(s.Probing, s.Shed)
	e.int(s.Window, s.Progress, s.Faults, s.Completions, int64(s.Failed), s.Admits)
	e.int(int64(len(s.Crashes)))
	for _, c := range s.Crashes {
		e.int(int64(c.Key.Program))
		e.str(c.Key.Site)
		e.int(c.N)
		e.bool(c.On)
	}
}

func (e *transcript) contentionState(rep []ContentionSiteReport) {
	e.int(int64(len(rep)))
	for _, r := range rep {
		e.str(r.Site)
		e.bool(r.Demoted)
		e.int(r.Conflicts, r.Capacities, r.Backoffs, r.Fallbacks, r.Repromotes, r.TxCommits, r.FallCommits)
	}
}

// streamRand is the streams' own generator (splitmix64), deliberately not the
// package's xorshift: the transcript must not move when that is refactored.
type streamRand uint64

func (r *streamRand) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *streamRand) n(n int) int         { return int(r.next() % uint64(n)) }
func (r *streamRand) chance(pct int) bool { return r.n(100) < pct }

func pick[T any](r *streamRand, vs ...T) T { return vs[r.n(len(vs))] }

const transcriptEvents = 12000

// governorTranscript drives OnTransfer/OnClean over a handful of functions,
// sites, causes, dispatch and OSR flags. Traffic alternates stormy and calm
// phases so ledgers trip, decay and drain and levels retreat, probe, confirm,
// regress and pin; function names rotate by epoch so pinned functions do not
// silence the tail of the stream, and the state crosses Export/Restore into a
// fresh governor every 701 events (so it lands in stormy and calm phases alike).
func governorTranscript(seed uint64, pol Policy) uint64 {
	e, r := newTranscript(), streamRand(seed)
	g := New(pol)
	for i := 0; i < transcriptEvents; i++ {
		epoch := i / 1000
		fn := fmt.Sprintf("%s%d", pick(&r, "f", "g", "h", "io"), epoch)
		stormy := (i/60)%3 == 0
		abortPct := 4
		if stormy {
			abortPct = 55
		}
		if r.chance(abortPct) {
			// Drawn in the order the hashes were recorded under: Aborted, Cause,
			// Class, site Fn, PC, then Path, Dispatch and Shape.
			t := Transfer{
				Fn:      fn,
				Aborted: r.chance(70),
				Cause:   pick(&r, htm.AbortCheck, htm.AbortCheck, htm.AbortCheck, htm.AbortCheck, htm.AbortSOF, htm.AbortSOF, htm.AbortCapacity),
			}
			t.Site.Class = pick(&r, stats.CheckBounds, stats.CheckBounds, stats.CheckType)
			t.Site.Fn = pick(&r, "", fn, fmt.Sprintf("g%d", epoch))
			t.Site.PC = pick(&r, 3, 7, 7, 7)
			if r.chance(15) {
				t.Site.Path = "g@5"
			}
			if r.chance(20) {
				t.Site.Dispatch = true
				t.Site.Shape = pick(&r, "", "s1", "s2")
			}
			if t.Cause == htm.AbortCapacity && r.chance(10) {
				t.HadCalls = true
			}
			if fn[0] == 'i' && r.chance(5) {
				t.Aborted, t.Cause = true, htm.AbortIrrevocable
			}
			if r.chance(25) {
				t.OSR, t.OSRPC = true, pick(&r, 4, 9)
			}
			e.decision(g.OnTransfer(t))
		} else {
			e.decision(g.OnClean(fn, pick[int64](&r, 0, 1, 1, 1, 2, 2, 3, 5, 8, 40, 300)))
		}
		if i%7 == 0 {
			e.int(int64(g.LevelFor(fn)), int64(len(g.KeepSet(fn))), int64(len(g.DemoteSet(fn))))
			e.bool(g.KeepSet(fn) == nil, g.DemoteSet(fn) == nil, g.OSRAllowed(fn, 4), g.OSRAllowed(fn, 9))
		}
		if i%701 == 700 {
			fresh := New(g.Policy())
			fresh.Restore(g.Export())
			g = fresh
		}
	}
	e.governorState(g.Export())
	return e.h.Sum64()
}

// resilienceTranscript drives the fleet ladder, the quarantine ledger, shed
// admission and the retry backoff draw.
func resilienceTranscript(seed uint64, pol ResiliencePolicy) uint64 {
	e, r := newTranscript(), streamRand(seed)
	res := NewResilience(pol, profile.TierFTL)
	key := func() CrashKey {
		return CrashKey{Program: uint64(r.n(3)), Site: pick(&r, "vm.Call", "machine.run", "heap.grow")}
	}
	for i := 0; i < transcriptEvents; i++ {
		stormy := (i/80)%4 == 0
		faultPct := 2
		if stormy {
			faultPct = 45
		}
		switch {
		case r.chance(faultPct):
			if r.chance(30) {
				k := key()
				v := res.OnCrash(k)
				e.int(v.Crashes)
				e.bool(v.Retired, v.NewlyRetired, res.Retired(k))
				e.int(res.CrashCount(k))
				e.ladder(v.Ladder)
			} else {
				e.ladder(res.OnFault())
			}
		case r.chance(8):
			e.bool(res.Admit())
		case r.chance(6):
			attempt := r.n(14)
			e.int(res.Backoff(pick(&r, "req-a", "req-b", "k"), attempt))
			e.bool(res.RetryAllowed(attempt))
		default:
			e.ladder(res.OnSuccess())
		}
		if i%5 == 0 {
			e.int(int64(res.TierCap()))
			e.bool(res.Degraded(), res.Shedding())
		}
		if i%701 == 700 {
			fresh := NewResilience(pol, profile.TierFTL)
			fresh.Restore(res.Export())
			res = fresh
		}
	}
	e.resilienceState(res.Export())
	return e.h.Sum64()
}

// contentionTranscript drives conflict/capacity/commit events over a few
// section sites.
func contentionTranscript(seed uint64, pol ContentionPolicy) uint64 {
	e, r := newTranscript(), streamRand(seed)
	c := NewContention(pol)
	for i := 0; i < transcriptEvents; i++ {
		site := pick(&r, "wl#s0", "wl#s1", "wl#s2", "other#s0")
		stormy := (i/50)%3 == 0
		conflictPct := 5
		if stormy {
			conflictPct = 60
		}
		switch {
		case r.chance(conflictPct):
			d := c.OnConflict(site)
			e.bool(d.Fallback)
			e.int(d.BackoffCycles)
		case r.chance(5):
			d := c.OnCapacity(site)
			e.bool(d.Fallback)
			e.int(d.BackoffCycles)
		default:
			e.bool(c.OnCommit(site, c.Demoted(site) || r.chance(10)))
		}
		e.bool(c.Demoted(site))
	}
	e.contentionState(c.Report())
	return e.h.Sum64()
}

func TestFrozenDecisionTranscript(t *testing.T) {
	tightLadder := ResiliencePolicy{RetireAfterCrashes: 2, TripThreshold: 2, TripWindow: 8,
		RepromoteWindow: 4, ProbationBackoff: 3, ProbeEvery: 3, BackoffBase: 10, BackoffCap: 300, Seed: 9}
	cases := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"governor/rot", governorTranscript(1, DefaultPolicy(true)), 0x1ac687a16ecfe8ce},
		{"governor/rtm", governorTranscript(2, DefaultPolicy(false)), 0x5802ebb4997a435c},
		{"resilience/default", resilienceTranscript(3, DefaultResiliencePolicy(42)), 0x91e75c5d59141f3b},
		{"resilience/tight", resilienceTranscript(4, tightLadder), 0x6af6757de60cb686},
		{"contention/default", contentionTranscript(5, DefaultContentionPolicy(7)), 0x4f18971801cb11d3},
		{"contention/long", contentionTranscript(6, ContentionPolicy{MaxAttempts: 9, BackoffBase: 3, BackoffCap: 100, RepromoteWindow: 3, Seed: 11}), 0x193ca390339b4d3b},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: transcript hash %#016x, want %#016x — a recovery decision or exported ledger row changed", c.name, c.got, c.want)
		}
	}
}
