// Package chaos is the serving layer's deterministic fault-injection
// harness: a seeded plan of fault points threaded through the pool, the
// isolates, and the compiled-code cache the same way the oracle's
// machine.Injector and htm.CapacityProbe thread through the execution
// engine. Each fault point names a failure mode the resilience subsystem
// must survive — a panicking isolate, a transient compile failure, a wedged
// (slow) isolate, a corrupted warm-start snapshot — and fires at an exact
// occurrence index, so a chaos run is replayable: the same plan against the
// same traffic produces the same fault at the same request.
//
// The package deliberately knows nothing about the pool: it only counts
// arming points and answers "does this occurrence fault?". The pool, the
// snapshot store, and the code cache decide what an armed fault means at
// their layer, exactly as the machine decides what machine.ActFailCheck
// means at a check site.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"nomap/internal/governor"
)

// Kind names one registered fault point. Every kind must be survivable:
// the chaos sweep in internal/oracle enumerates all of them under load and
// requires the pool to converge back to healthy with zero lost responses.
type Kind uint8

const (
	// KindPanic crashes the serving isolate mid-execution: the fault
	// surfaces as a Go panic from inside the engine, which the pool's crash
	// containment must recover, quarantine, and replace.
	KindPanic Kind = iota
	// KindCompileFail fails one speculative-tier compilation fill
	// transiently (the code cache's fill probe): the engine must fall back
	// to Baseline for that call and recompile cleanly later.
	KindCompileFail
	// KindSlowIsolate wedges one request's isolate: every tier boundary
	// reports the watchdog expiry, so the request dies with the deadline
	// error instead of occupying a worker forever.
	KindSlowIsolate
	// KindSnapshotCorrupt damages a warm-start snapshot in flight: the
	// isolate's integrity seal must reject it and the request must be
	// served cold, byte-identical.
	KindSnapshotCorrupt
	// NumKinds sizes per-kind ledgers.
	NumKinds
)

// String names the kind as it appears in plans and traces.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindCompileFail:
		return "compile-fail"
	case KindSlowIsolate:
		return "slow-isolate"
	case KindSnapshotCorrupt:
		return "snapshot-corrupt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// AllKinds returns every registered fault point, in declaration order. The
// chaos sweep iterates this so a newly registered kind is enumerated
// automatically — forgetting to handle it fails the sweep, not silence.
func AllKinds() []Kind {
	return []Kind{KindPanic, KindCompileFail, KindSlowIsolate, KindSnapshotCorrupt}
}

// ParseKind is the inverse of Kind.String (for command-line plans).
func ParseKind(s string) (Kind, bool) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Point schedules one fault: the At-th arming of Kind (1-based) faults.
type Point struct {
	Kind Kind
	At   int64
}

// At schedules kind to fault at its k-th arming.
func At(kind Kind, k int64) Point { return Point{Kind: kind, At: k} }

// Crash is the panic payload a KindPanic fault raises. Carrying a typed
// value lets the pool's recovery fingerprint injected crashes distinctly
// from organic ones while exercising the identical containment path.
type Crash struct {
	// Occurrence is the arming index that fired.
	Occurrence int64
}

func (c Crash) String() string {
	return fmt.Sprintf("chaos: injected isolate panic (occurrence %d)", c.Occurrence)
}

// CompileFault is the error a KindCompileFail fault injects into a compile
// fill. It is transient by construction: the engine's bounded
// transient-compile-failure policy must absorb it.
type CompileFault struct {
	Occurrence int64
}

func (e *CompileFault) Error() string {
	return fmt.Sprintf("chaos: injected transient compile failure (occurrence %d)", e.Occurrence)
}

// Plan is one chaos run's fault schedule plus its firing ledger. It is
// concurrency-safe: pool workers arm points from their own goroutines, and
// each scheduled point fires exactly once regardless of interleaving.
type Plan struct {
	mu    sync.Mutex
	seed  int64
	at    [NumKinds]map[int64]bool
	armed [NumKinds]int64
	fired [NumKinds]int64
}

// NewPlan builds a plan firing the given points. The seed labels the run
// (plans built by Spread derive their occurrence indices from it).
func NewPlan(seed int64, points ...Point) *Plan {
	p := &Plan{seed: seed}
	for i := range p.at {
		p.at[i] = make(map[int64]bool)
	}
	for _, pt := range points {
		if pt.Kind < NumKinds && pt.At >= 1 {
			p.at[pt.Kind][pt.At] = true
		}
	}
	return p
}

// Spread builds a plan that faults kind at n seeded-pseudorandom occurrences
// within [1, span]: the deterministic analogue of the oracle's
// random-schedule pass. Equal seeds give equal plans.
func Spread(seed int64, kind Kind, n int, span int64) *Plan {
	if span < 1 {
		span = 1
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(kind) + 0x243F6A8885A308D3
	pts := make([]Point, 0, n)
	seen := make(map[int64]bool)
	for len(pts) < n {
		x = governor.XorShift64(x)
		k := 1 + int64(x%uint64(span))
		if !seen[k] {
			seen[k] = true
			pts = append(pts, At(kind, k))
		}
		if int64(len(seen)) >= span {
			break
		}
	}
	return NewPlan(seed, pts...)
}

// Seed returns the plan's label seed.
func (p *Plan) Seed() int64 { return p.seed }

// Arm counts one occurrence of kind and reports whether it faults. A nil
// plan never faults, so production paths stay hook-free: the pool can call
// plan.Arm unconditionally.
func (p *Plan) Arm(kind Kind) bool {
	if p == nil || kind >= NumKinds {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed[kind]++
	if p.at[kind][p.armed[kind]] {
		p.fired[kind]++
		return true
	}
	return false
}

// Armed returns how many occurrences of kind have been counted.
func (p *Plan) Armed(kind Kind) int64 {
	if p == nil || kind >= NumKinds {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.armed[kind]
}

// Fired returns how many scheduled faults of kind have fired.
func (p *Plan) Fired(kind Kind) int64 {
	if p == nil || kind >= NumKinds {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[kind]
}

// Scheduled returns how many faults of kind the plan carries.
func (p *Plan) Scheduled(kind Kind) int {
	if p == nil || kind >= NumKinds {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.at[kind])
}

// Exhausted reports that every scheduled fault of every kind has fired —
// the precondition for asserting a run converged back to healthy.
func (p *Plan) Exhausted() bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := Kind(0); k < NumKinds; k++ {
		if p.fired[k] < int64(len(p.at[k])) {
			return false
		}
	}
	return true
}

// String renders the plan's schedule canonically ("panic@3,slow-isolate@5").
func (p *Plan) String() string {
	if p == nil {
		return "<none>"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var parts []string
	for k := Kind(0); k < NumKinds; k++ {
		occs := make([]int64, 0, len(p.at[k]))
		for o := range p.at[k] {
			occs = append(occs, o)
		}
		sort.Slice(occs, func(i, j int) bool { return occs[i] < occs[j] })
		for _, o := range occs {
			parts = append(parts, fmt.Sprintf("%s@%d", k, o))
		}
	}
	if len(parts) == 0 {
		return "<empty>"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated "kind@k" schedule (the nomap-serve
// -chaos flag syntax): "panic@3,compile-fail@1,slow-isolate@5".
func ParsePlan(seed int64, spec string) (*Plan, error) {
	var pts []Point
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: bad point %q (want kind@k)", part)
		}
		kind, ok := ParseKind(name)
		if !ok {
			return nil, fmt.Errorf("chaos: unknown fault kind %q", name)
		}
		var k int64
		if _, err := fmt.Sscanf(at, "%d", &k); err != nil || k < 1 {
			return nil, fmt.Errorf("chaos: bad occurrence %q in %q", at, part)
		}
		pts = append(pts, At(kind, k))
	}
	return NewPlan(seed, pts...), nil
}
