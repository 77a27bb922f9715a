package oracle

import (
	"fmt"
	"math/rand"

	"nomap/internal/htm"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
)

// Config controls a sweep.
type Config struct {
	// Archs lists the configurations to sweep (default: all six).
	Archs []vm.Arch
	// MaxTier caps tier-up (default: FTL, the tier under test).
	MaxTier profile.Tier
	// CapacityPoints is how many write-footprint indices get a forced
	// capacity overflow per configuration (default 3: first, middle, last
	// tracked write line). Zero disables; negative means every line.
	CapacityPoints int
	// RandomTrials adds seeded random-schedule injections per configuration:
	// a random site, a random dynamic occurrence, a random legal action.
	RandomTrials int
	// Seed seeds the random-schedule mode.
	Seed int64
	// Engines, when non-nil, supplies the engine for each instrumented run
	// instead of constructing a throwaway one. The serving tests use it to
	// point the sweep at pool-drawn isolates.
	Engines EngineFactory
}

// DefaultConfig sweeps all six architecture configurations exhaustively with
// three capacity points and a handful of random-schedule trials.
func DefaultConfig() Config {
	return Config{
		Archs:          vm.AllArchs,
		MaxTier:        profile.TierFTL,
		CapacityPoints: 3,
		RandomTrials:   8,
		Seed:           1,
	}
}

// Failure is one detected violation, shared by every sweep: a behavioural
// divergence from the reference, a counter-invariant break, an ir.Verify
// failure, an injection that did not land, or a broken resilience
// invariant of the chaos sweep.
type Failure struct {
	Arch vm.Arch
	// Run names the run within its sweep: "recording", a site description,
	// "capacity@k", "random#i", a schedule, or the chaos sweep's phase
	// ("serial" | "load" | "converge").
	Run string
	// Kind classifies the violation: "divergence" | "counter-invariant" |
	// "ir-verify" | "injection-missed"; the chaos sweep adds
	// "lost-response" | "error-class" | "fault-unfired" | "not-healthy".
	Kind   string
	Detail string
}

func (f Failure) String() string {
	return fmt.Sprintf("[%s] %s: %s: %s", f.Arch, f.Run, f.Kind, f.Detail)
}

// ArchReport summarizes one configuration's sweep.
type ArchReport struct {
	Arch vm.Arch
	// Sites are the enumerated static injection sites, in first-visit order.
	Sites []*SiteInfo
	// WriteLines is the transactional write-footprint size (in tracked
	// cache lines) of the recording run — the capacity injection space.
	WriteLines int
	// Runs is the number of executions performed (recording + injections).
	Runs int
	// InjectedAborts / InjectedDeopts total the aborts and OSR exits
	// observed across all injection runs of this configuration.
	InjectedAborts int64
	InjectedDeopts int64
}

// Report is the outcome of one program's sweep.
type Report struct {
	Program  string
	Archs    []ArchReport
	Failures []Failure
}

// OK reports a fully clean sweep.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// TotalSites sums enumerated sites across configurations.
func (r *Report) TotalSites() int {
	n := 0
	for _, a := range r.Archs {
		n += len(a.Sites)
	}
	return n
}

// TotalRuns sums executions across configurations.
func (r *Report) TotalRuns() int {
	n := 0
	for _, a := range r.Archs {
		n += a.Runs
	}
	return n
}

// TotalInjectedAborts sums aborts observed across all injection runs.
func (r *Report) TotalInjectedAborts() int64 {
	var n int64
	for _, a := range r.Archs {
		n += a.InjectedAborts
	}
	return n
}

// defaultAction picks the fault forced at a site during the exhaustive pass.
// Checks fail (deopting through their SMP or aborting their transaction);
// transaction boundaries abort with the cause natural to the boundary: an
// irrevocable event right after begin, a sticky-overflow detection at
// commit, a capacity overflow at a tile point.
func defaultAction(kind machine.SiteKind) machine.Action {
	switch kind {
	case machine.SiteCheck:
		return machine.ActFailCheck
	case machine.SiteDispatch:
		// A forced dispatch miss skips the matching way; the receiver then
		// matches no sibling (shapes are mutually exclusive), so the chain
		// cascades into its deopting tail guard — an abort or deopt follows.
		return machine.ActFailCheck
	case machine.SiteTxBegin:
		return machine.ActAbortIrrevocable
	case machine.SiteTxCommit:
		return machine.ActAbortSOF
	case machine.SiteTxTile:
		return machine.ActAbortCapacity
	}
	return machine.ActNone
}

// Sweep enumerates every injectable site of p under each configuration and
// re-runs the program once per site (plus capacity and random-schedule
// injections), comparing every run against the pure-interpreter reference.
func Sweep(p Program, cfg Config) (*Report, error) {
	if len(cfg.Archs) == 0 {
		cfg.Archs = vm.AllArchs
	}
	if cfg.MaxTier == 0 {
		cfg.MaxTier = profile.TierFTL
	}
	// An error the program raises after its warm-up calls is an observation
	// like any other: every tier raises the same error text. One raised
	// earlier means the program never reached the tiers under test.
	ref := Reference(p)
	if ref.Err != "" && len(ref.Results) < p.Calls {
		return nil, fmt.Errorf("oracle: %s: reference run failed: %s", p.Name, ref.Err)
	}
	rep := &Report{Program: p.Name}

	for _, arch := range cfg.Archs {
		ar := ArchReport{Arch: arch}
		fail := func(run, kind, detail string) {
			rep.Failures = append(rep.Failures, Failure{Arch: arch, Run: run, Kind: kind, Detail: detail})
		}

		// Recording run: enumerate sites, count the write footprint, and
		// establish the plain (un-injected) differential baseline.
		rec := newRecorder()
		obs, ctrs := runInstrumented(p, arch, cfg.MaxTier, cfg.Engines, rec, rec.probe, func(d string) {
			fail("recording", "ir-verify", d)
		})
		ar.Runs++
		if d := ref.Diff(obs); d != "" {
			fail("recording", "divergence", d)
		}
		if err := CheckCounters(ctrs); err != nil {
			fail("recording", "counter-invariant", err.Error())
		}
		ar.Sites = rec.Sites()
		ar.WriteLines = rec.writeLines

		inject := func(run string, inj machine.Injector, probe htm.CapacityProbe, fired func() bool, expectAbort bool) {
			obs, ctrs := runInstrumented(p, arch, cfg.MaxTier, cfg.Engines, inj, probe, func(d string) {
				fail(run, "ir-verify", d)
			})
			ar.Runs++
			ar.InjectedAborts += ctrs.TxAborts
			ar.InjectedDeopts += ctrs.OSRExits
			if !fired() {
				fail(run, "injection-missed", "site not reached in re-run")
				return
			}
			if expectAbort && ctrs.TxAborts == 0 && ctrs.OSRExits == 0 {
				fail(run, "injection-missed", "fault fired but no abort or deopt occurred")
			}
			if d := ref.Diff(obs); d != "" {
				fail(run, "divergence", d)
			}
			if err := CheckCounters(ctrs); err != nil {
				fail(run, "counter-invariant", err.Error())
			}
		}

		// Exhaustive pass: one run per enumerated site, fault at the first
		// dynamic occurrence. Tile sites additionally get a forced early
		// tile-commit (a non-fault perturbation that must still preserve
		// behaviour).
		for _, s := range ar.Sites {
			act := defaultAction(s.Key.Kind)
			sh := &shot{key: s.Key, occurrence: 1, action: act}
			inject(fmt.Sprintf("%s#1(%d)", s.Key, act), sh, nil, func() bool { return sh.fired }, true)
			if s.Key.Kind == machine.SiteTxTile {
				ts := &shot{key: s.Key, occurrence: 1, action: machine.ActTileCommit}
				inject(fmt.Sprintf("%s#1(tile-commit)", s.Key), ts, nil, func() bool { return ts.fired }, false)
			}
		}

		// Capacity pass: force an overflow at chosen points of the write
		// footprint; the §V-C retreat policy (loop-nest → innermost → tiled
		// → off) then reshapes later compilations, which must stay correct.
		if ar.WriteLines > 0 && cfg.CapacityPoints != 0 {
			targets := capacityTargets(ar.WriteLines, cfg.CapacityPoints)
			for _, k := range targets {
				cs := &capShot{target: k}
				inject(fmt.Sprintf("capacity@%d", k), nil, cs.probe, func() bool { return cs.fired }, true)
			}
		}

		// Random-schedule pass: seeded sampling of deeper occurrences.
		if cfg.RandomTrials > 0 && len(ar.Sites) > 0 {
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(arch)<<32 ^ int64(len(ar.Sites))))
			for i := 0; i < cfg.RandomTrials; i++ {
				s := ar.Sites[rng.Intn(len(ar.Sites))]
				occ := 1 + rng.Intn(s.Count)
				act := randomAction(rng, s.Key.Kind)
				sh := &shot{key: s.Key, occurrence: occ, action: act}
				inject(fmt.Sprintf("random#%d:%s#%d(%d)", i, s.Key, occ, act),
					sh, nil, func() bool { return sh.fired }, act != machine.ActTileCommit)
			}
		}

		rep.Archs = append(rep.Archs, ar)
	}
	return rep, nil
}

// runInstrumented executes one observation run with the given injector,
// capacity probe, and an ir.Verify pass hook; it returns the observation and
// a copy of the engine's final counters (a copy because a factory-supplied
// engine may be recycled — and its counters reset — once released).
func runInstrumented(p Program, arch vm.Arch, maxTier profile.Tier, factory EngineFactory,
	inj machine.Injector, probe htm.CapacityProbe, verifyFail func(string)) (*Observation, *stats.Counters) {
	pv := &passVerifier{}
	var eng Engine
	if factory != nil {
		eng = factory(arch, maxTier)
	} else {
		eng = newEngine(arch, maxTier)
	}
	defer eng.Done()
	b := eng.Backend()
	// Defensive determinism guard: a freshly attached backend starts empty,
	// but Reset makes the contract explicit — no cached code and no governor
	// ledger state may leak between differential runs, or an injected fault
	// in one run would change recovery-policy decisions in the next.
	b.Reset()
	if inj != nil {
		b.Machine().SetInjector(inj)
	}
	if probe != nil {
		b.Machine().HTM.SetCapacityProbe(probe)
	}
	b.SetPassHook(pv.hook)
	obs := observe(eng.VM(), p)
	for _, e := range pv.errs {
		verifyFail(e)
	}
	ctrs := *eng.VM().Counters()
	return obs, &ctrs
}

// capacityTargets spreads n injection points over a footprint of w tracked
// write lines: always the first and last line, with the rest evenly spaced.
// n < 0 selects every line.
func capacityTargets(w, n int) []int {
	if n < 0 || n >= w {
		out := make([]int, w)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	seen := make(map[int]bool)
	var out []int
	add := func(k int) {
		if k >= 1 && k <= w && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if n == 1 {
		add(1)
		return out
	}
	for i := 0; i < n; i++ {
		add(1 + i*(w-1)/(n-1))
	}
	return out
}

// randomAction picks a legal action for the site kind.
func randomAction(rng *rand.Rand, kind machine.SiteKind) machine.Action {
	switch kind {
	case machine.SiteCheck, machine.SiteDispatch:
		return machine.ActFailCheck
	case machine.SiteTxTile:
		return []machine.Action{machine.ActAbortCapacity, machine.ActAbortSOF,
			machine.ActAbortIrrevocable, machine.ActTileCommit}[rng.Intn(4)]
	default:
		return []machine.Action{machine.ActAbortCapacity, machine.ActAbortSOF,
			machine.ActAbortIrrevocable}[rng.Intn(3)]
	}
}
