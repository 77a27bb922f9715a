package oracle

import (
	"nomap/internal/machine"
	"nomap/internal/stats"
)

// Key identifies a static injection site: the machine's own site identity,
// stable between a recording run and an injection run of the same program
// under the same configuration.
type Key = machine.SiteKey

// SiteInfo is one enumerated site with its dynamic behaviour during the
// recording run.
type SiteInfo struct {
	Key Key
	// Check and HasSMP describe check sites: HasSMP sites deopt on failure,
	// the rest abort their transaction (the SMP was converted by NoMap).
	Check  stats.CheckClass
	HasSMP bool
	// InTx reports whether a transaction was open at the first visit.
	InTx bool
	// Count is the number of dynamic visits.
	Count int
	// order is the index of the site's first dynamic visit, used to report
	// sites in execution order.
	order int
}

// recorder enumerates sites without perturbing the run.
type recorder struct {
	sites map[Key]*SiteInfo
	// writeLines counts newly tracked transactional write lines, which is
	// the index space for capacity injection.
	writeLines int
}

func newRecorder() *recorder { return &recorder{sites: make(map[Key]*SiteInfo)} }

func (r *recorder) At(s machine.Site) machine.Action {
	// Dispatch predicates count only their passing visits: shot.At declines
	// to force a miss on an already-missing predicate (a no-op fault), so
	// Count must index the consumable occurrence space. A predicate that
	// never passes is not an injectable site at all.
	if s.Kind == machine.SiteDispatch && s.Failed {
		return machine.ActNone
	}
	k := s.SiteKey
	info := r.sites[k]
	if info == nil {
		info = &SiteInfo{Key: k, Check: s.Check, HasSMP: s.HasSMP, InTx: s.InTx, order: len(r.sites)}
		r.sites[k] = info
	}
	info.Count++
	return machine.ActNone
}

// probe is installed as the HTM capacity probe during recording; it only
// counts.
func (r *recorder) probe(write bool, line uint64) bool {
	if write {
		r.writeLines++
	}
	return false
}

// Sites returns the enumerated sites in first-visit order.
func (r *recorder) Sites() []*SiteInfo {
	keys := sortedKeys(r.sites, func(a, b Key) bool { return r.sites[a].order < r.sites[b].order })
	out := make([]*SiteInfo, len(keys))
	for i, k := range keys {
		out[i] = r.sites[k]
	}
	return out
}

// shot injects a single action at the n-th dynamic visit of one site, then
// goes inert: one fault per run.
type shot struct {
	key        Key
	occurrence int // 1-based
	action     machine.Action
	seen       int
	fired      bool
}

func (s *shot) At(site machine.Site) machine.Action {
	if s.fired || site.SiteKey != s.key {
		return machine.ActNone
	}
	// Forcing a miss on an already-missing dispatch predicate would change
	// nothing (and the run would then show no abort where one is expected);
	// wait for a visit where the predicate passes, which the recorder
	// guarantees exists (it only counts passing visits).
	if site.Kind == machine.SiteDispatch && site.Failed && s.action == machine.ActFailCheck {
		return machine.ActNone
	}
	s.seen++
	if s.seen < s.occurrence {
		return machine.ActNone
	}
	s.fired = true
	return s.action
}

// capShot forces a capacity overflow on the n-th newly tracked transactional
// write line of the run (via the HTM capacity probe), then goes inert.
type capShot struct {
	target int // 1-based
	seen   int
	fired  bool
}

func (c *capShot) probe(write bool, line uint64) bool {
	if c.fired || !write {
		return false
	}
	c.seen++
	if c.seen < c.target {
		return false
	}
	c.fired = true
	return true
}

// bug is the deliberately planted compiler defect used to prove the oracle
// catches real miscompilation: every failing check of the selected classes
// is treated as if it passed — exactly what a check-removal pass without
// transactional protection would do. It is only ever installed by test
// builds (Sweep never uses it).
type bug struct {
	classes map[stats.CheckClass]bool
}

// NewPlantedBug returns an injector that suppresses failures of the given
// check classes; with no classes, every failing check is suppressed.
func NewPlantedBug(classes ...stats.CheckClass) machine.Injector {
	b := &bug{classes: make(map[stats.CheckClass]bool)}
	for _, c := range classes {
		b.classes[c] = true
	}
	return b
}

func (b *bug) At(s machine.Site) machine.Action {
	if s.Kind == machine.SiteCheck && s.Failed && (len(b.classes) == 0 || b.classes[s.Check]) {
		return machine.ActPassCheck
	}
	return machine.ActNone
}

// staleShapeBug is the inline-cache analogue of the planted check-removal
// bug: every failing dispatch-tree check — the way predicates, the deopting
// tail guard, and the per-way callee guards inside method bodies — is
// treated as a hit, exactly as if the whole cache entry were stale: a
// receiver's hidden class moved on but the tree still dispatches it down the
// old way. The wrong way's specialized body then runs to completion (no
// second line of defense), and the differential oracle must observe the
// divergence. Only ever installed by test builds (Sweep never uses it).
type staleShapeBug struct{}

// NewStaleShapeBug returns an injector that forces every failing
// dispatch-marked check to report a hit. Dispatch-marked SiteCheck visits
// are recognized by their per-shape identity (Site.Shape is "" for every
// ordinary check).
func NewStaleShapeBug() machine.Injector { return staleShapeBug{} }

func (staleShapeBug) At(s machine.Site) machine.Action {
	if !s.Failed {
		return machine.ActNone
	}
	if s.Kind == machine.SiteDispatch || (s.Kind == machine.SiteCheck && s.Shape != "") {
		return machine.ActPassCheck
	}
	return machine.ActNone
}
