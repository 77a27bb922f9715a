// Package isolate wraps one engine instance (VM + speculative-tier backend)
// as a reusable execution context for the serving layer. An isolate owns all
// of its mutable state — shape table, globals, profiles, governor ledgers,
// simulated hardware, RNG — and shares nothing mutable with its siblings;
// the only cross-isolate artifacts are immutable (interned bytecode, code
// cache entries, snapshots). Reset returns a recycled isolate to a state
// indistinguishable from a freshly constructed one, clearing every
// observation hook a previous tenant may have installed.
//
// The package also provides the warm-start facility: Snapshot captures an
// isolate's post-warmup profile feedback and abort-recovery governor ledgers
// in portable (pointer-free) form, and Restore installs them into a fresh
// isolate of the same program, which then tiers up immediately — pulling
// already-compiled artifacts from the shared code cache instead of
// re-profiling and re-compiling from scratch.
package isolate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"nomap/internal/bytecode"
	"nomap/internal/codecache"
	"nomap/internal/governor"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// Isolate is one engine instance plus its backend.
type Isolate struct {
	cfg     vm.Config
	v       *vm.VM
	b       *jit.Backend
	program *codecache.ProgramEntry // currently loaded program, nil when fresh
}

// New creates an isolate under cfg.
func New(cfg vm.Config) *Isolate {
	v := vm.New(cfg)
	b := jit.Attach(v)
	return &Isolate{cfg: v.Config(), v: v, b: b}
}

// VM returns the isolate's engine.
func (iso *Isolate) VM() *vm.VM { return iso.v }

// Backend returns the isolate's speculative-tier backend.
func (iso *Isolate) Backend() *jit.Backend { return iso.b }

// Config returns the configuration the isolate was created with.
func (iso *Isolate) Config() vm.Config { return iso.cfg }

// Program returns the currently loaded program (nil when fresh).
func (iso *Isolate) Program() *codecache.ProgramEntry { return iso.program }

// UseCache connects (or with nil disconnects) the shared compiled-code
// cache.
func (iso *Isolate) UseCache(c *codecache.Cache) { iso.b.SetCodeCache(c) }

// Reset returns the isolate to its post-New state: VM state (shapes,
// globals, builtins, profiles, RNG, counters, output), backend state (code,
// governor, simulated hardware), and every observation or control hook a
// previous tenant installed — interrupt, pass hook, fault injector, tracer,
// HTM capacity probe. The code-cache connection survives: it holds only
// immutable artifacts.
func (iso *Isolate) Reset() {
	iso.v.SetInterrupt(nil)
	iso.b.SetPassHook(nil)
	iso.b.SetCompileSink(nil)
	iso.b.Machine().SetInjector(nil)
	iso.b.Machine().SetTracer(nil)
	iso.b.Machine().HTM.SetCapacityProbe(nil)
	iso.v.Reset()
	iso.b.Reset()
	iso.program = nil
}

// Load runs an interned program's top-level code (global declarations and
// setup) in the isolate. It requires a fresh or freshly Reset isolate so
// that per-program state never leaks between tenants.
func (iso *Isolate) Load(entry *codecache.ProgramEntry) error {
	if iso.program != nil {
		return fmt.Errorf("isolate: Load on an isolate already running %q (Reset first)", iso.program.Main.Name)
	}
	if _, err := iso.v.RunMain(entry.Main); err != nil {
		return err
	}
	iso.program = entry
	return nil
}

// Snapshot captures the isolate's warm state — profile feedback and governor
// ledgers — in portable form. Program-visible state (globals, heap, RNG) is
// deliberately excluded: a restored isolate re-runs the program's setup, so
// its observable behaviour is byte-identical to a cold run; only the
// invisible warmup work (profiling, tier-up, compilation) is skipped.
func (iso *Isolate) Snapshot() *Snapshot {
	s := &Snapshot{Program: iso.program, Gov: iso.b.Governor().Export()}
	if iso.program != nil {
		funcs := bytecode.Preorder(iso.program.Main)
		s.Profiles = make([][]byte, len(funcs))
		iso.v.EachProfile(func(fn *bytecode.Function, p *profile.FunctionProfile) {
			if fn.Index < len(funcs) && funcs[fn.Index] == fn {
				s.Profiles[fn.Index] = codecache.AppendProfile(nil, p, iso.v)
			}
		})
	}
	s.Seal = s.seal()
	return s
}

// ErrSnapshotCorrupt reports a snapshot whose payload no longer matches the
// integrity seal computed at capture, or does not decode. Restore refuses
// such a snapshot, so a damaged warm-start can only cost a cold start, never
// wrong profiles or ledgers.
var ErrSnapshotCorrupt = errors.New("isolate: snapshot failed integrity check")

// seal is FNV-1a over the snapshot's payload — program hash, governor
// ledgers and every profile encoding, each deterministically ordered — the
// integrity fingerprint Restore verifies.
func (s *Snapshot) seal() uint64 {
	h := fnv.New64a()
	var n [binary.MaxVarintLen64]byte
	if s.Program != nil {
		h.Write(binary.LittleEndian.AppendUint64(n[:0], s.Program.Hash))
	}
	fmt.Fprintf(h, "gov:%+v\n", s.Gov)
	for _, b := range s.Profiles {
		// Encodings are never empty, so length 0 marks an absent profile.
		h.Write(binary.AppendUvarint(n[:0], uint64(len(b))))
		h.Write(b)
	}
	return h.Sum64()
}

// CorruptCopy returns a copy of the snapshot with one payload byte damaged
// but the original seal retained — the exact shape of an in-flight
// corruption, for the chaos harness. The receiver is untouched.
func (s *Snapshot) CorruptCopy() *Snapshot {
	c := *s
	c.Profiles = append([][]byte(nil), s.Profiles...)
	for i, b := range c.Profiles {
		if b != nil {
			c.Profiles[i] = append([]byte{^b[0]}, b[1:]...)
			return &c
		}
	}
	c.Seal ^= 1
	return &c
}

// Restore installs a snapshot's profiles and governor ledgers into this
// isolate, which must have Loaded the same interned program (so the
// snapshot's function indices resolve). Nothing is installed unless the
// seal verifies and every profile decodes.
func (iso *Isolate) Restore(s *Snapshot) error {
	if iso.program == nil || iso.program != s.Program {
		return fmt.Errorf("isolate: snapshot is for a different program")
	}
	funcs := bytecode.Preorder(s.Program.Main)
	profs := make([]*profile.FunctionProfile, len(funcs))
	var err error
	if s.Seal != s.seal() || len(s.Profiles) > len(funcs) {
		err = errors.New("seal mismatch")
	}
	for i, b := range s.Profiles {
		if err == nil && b != nil {
			profs[i], err = codecache.DecodeProfile(b, funcs[i], funcs, iso.v)
		}
	}
	if err != nil {
		iso.v.Counters().SnapshotRejects++
		return fmt.Errorf("restore %q: %w: %v", s.Program.Main.Name, ErrSnapshotCorrupt, err)
	}
	for i, p := range profs {
		if p != nil {
			iso.v.SetProfile(funcs[i], p)
		}
	}
	iso.b.Governor().Restore(s.Gov)
	iso.v.Counters().SnapshotRestores++
	return nil
}

// Snapshot is an isolate's portable warm state. It is immutable once built
// and safe to restore into any number of isolates concurrently.
type Snapshot struct {
	Program *codecache.ProgramEntry
	// Profiles holds each function's full profile encoding
	// (codecache.AppendProfile), indexed by bytecode.Function.Index; nil
	// where the function has no profile.
	Profiles [][]byte
	Gov      governor.Snapshot
	// Seal is the integrity fingerprint of the fields above, computed at
	// capture; Restore recomputes it and rejects a mismatch with
	// ErrSnapshotCorrupt.
	Seal uint64
}

// StoreKey identifies the engine configuration a snapshot was captured
// under. Feedback is only transferable between identically configured
// isolates of the same program: a different arch, tier cap, policy, or seed
// profiles differently.
type StoreKey struct {
	Program *codecache.ProgramEntry
	Arch    vm.Arch
	MaxTier profile.Tier
	Policy  profile.Policy
	Seed    uint64
}

// KeyFor builds the snapshot-store key for an isolate running entry.
func KeyFor(cfg vm.Config, entry *codecache.ProgramEntry) StoreKey {
	return StoreKey{
		Program: entry,
		Arch:    cfg.Arch,
		MaxTier: cfg.MaxTier,
		Policy:  cfg.Policy,
		Seed:    cfg.RandomSeed,
	}
}

// StoreStats counts snapshot-store activity.
type StoreStats struct {
	Hits   int64
	Misses int64
	Size   int
}

// Store is a concurrency-safe snapshot registry: first warm isolate in
// saves, everyone after starts warm.
type Store struct {
	mu     sync.RWMutex
	m      map[StoreKey]*Snapshot
	hits   int64
	misses int64
}

// NewStore creates an empty snapshot store.
func NewStore() *Store {
	return &Store{m: make(map[StoreKey]*Snapshot)}
}

// Get returns the snapshot for k, or nil.
func (st *Store) Get(k StoreKey) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.m[k]
	if s != nil {
		st.hits++
	} else {
		st.misses++
	}
	return s
}

// SaveOnce stores s under k unless a snapshot is already present, reporting
// whether s was stored. Keeping the first capture (rather than overwriting)
// makes the warm path deterministic: every restored isolate starts from the
// same ledger state.
func (st *Store) SaveOnce(k StoreKey, s *Snapshot) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[k]; ok {
		return false
	}
	st.m[k] = s
	return true
}

// Stats returns a snapshot of store activity.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{Hits: st.hits, Misses: st.misses, Size: len(st.m)}
}
