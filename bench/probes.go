package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nomap/internal/bytecode"
	"nomap/internal/cache"
	"nomap/internal/codecache"
	"nomap/internal/core"
	"nomap/internal/ftl"
	"nomap/internal/harness"
	"nomap/internal/htm"
	"nomap/internal/ir"
	"nomap/internal/isolate"
	"nomap/internal/lexer"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// Direct probes: each calls one layer's public functions on the workload's
// own inputs and times them from outside. They run after the windows, on
// one goroutine.

// layerSet holds per-layer metric values by name.
type layerSet map[string]float64

// probeFor is how long a probe repeats its input.
const probeFor = 100 * time.Millisecond

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func countFuncs(f *bytecode.Function) (fns, instrs int) {
	fns, instrs = 1, len(f.Code)
	for _, g := range f.Funcs {
		n, m := countFuncs(g)
		fns += n
		instrs += m
	}
	return fns, instrs
}

// probeFrontend runs the lexer, the parser and the bytecode compiler over
// the program texts, a whole pass at a time.
func probeFrontend(ls layerSet, srcs []string) error {
	bytes := 0
	for _, s := range srcs {
		bytes += len(s)
	}

	passes, start := 0, time.Now()
	for time.Since(start) < probeFor {
		for _, s := range srcs {
			if _, err := lexer.Tokenize(s); err != nil {
				return err
			}
		}
		passes++
	}
	ls["lexer.mb_per_s"] = float64(bytes*passes) / 1e6 / time.Since(start).Seconds()

	passes, start = 0, time.Now()
	m0 := mallocs()
	for time.Since(start) < probeFor {
		for _, s := range srcs {
			if _, err := parser.Parse(s); err != nil {
				return err
			}
		}
		passes++
	}
	elapsed := time.Since(start).Seconds()
	ls["parser.mb_per_s"] = float64(bytes*passes) / 1e6 / elapsed
	ls["parser.allocs_per_kb"] = float64(mallocs()-m0) / (float64(bytes*passes) / 1024)

	// A fresh AST per compile, parsed outside the timer.
	var compile time.Duration
	fns, fused, plain := 0, 0, 0
	passes, start = 0, time.Now()
	for time.Since(start) < 2*probeFor {
		for _, s := range srcs {
			prog, err := parser.Parse(s)
			if err != nil {
				return err
			}
			t0 := time.Now()
			main, err := bytecode.Compile(prog)
			compile += time.Since(t0)
			if err != nil {
				return err
			}
			if passes == 0 {
				n, m := countFuncs(main)
				fns, fused = fns+n, fused+m
				prog2, err := parser.Parse(s)
				if err != nil {
					return err
				}
				noFuse, err := bytecode.CompileNoFuse(prog2)
				if err != nil {
					return err
				}
				_, m = countFuncs(noFuse)
				plain += m
			}
		}
		passes++
	}
	ls["bytecode.compile_us_per_fn"] = float64(compile.Microseconds()) / float64(fns*passes)
	ls["bytecode.instrs_out"] = float64(fused)
	ls["bytecode.fused_share"] = 1 - ratio(float64(fused), float64(plain))
	return nil
}

// probeVM times engine construction and the cheapest possible vm.Call.
func probeVM(ls layerSet) error {
	const news = 40
	start := time.Now()
	for i := 0; i < news; i++ {
		newEngine(vm.ArchNoMap, profile.TierFTL)
	}
	ls["vm.new_us"] = float64(time.Since(start).Microseconds()) / news

	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierInterp
	v := vm.New(cfg)
	if _, err := v.Run("function run() { return 1; }"); err != nil {
		return err
	}
	const calls = 50000
	start = time.Now()
	for i := 0; i < calls; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			return err
		}
	}
	ls["vm.call_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	return nil
}

// callCost is what a run() call costs the host on warm engines, averaged
// over the keys.
type callCost struct {
	allocs, kb float64   // per call
	interpMops float64   // bytecode ops per host second, in millions
	ms         []float64 // per key, host time of one call
}

func measureCalls(engs []engine, callsPerKey int) (callCost, error) {
	cost := callCost{ms: make([]float64, len(engs))}
	var ops int64
	var elapsed time.Duration
	for k, e := range engs {
		c := e.v.Counters()
		ops0 := c.InterpOps + c.BaselineOps
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < callsPerKey; i++ {
			if _, err := e.v.CallGlobal("run"); err != nil {
				return cost, err
			}
		}
		dt := time.Since(t0)
		elapsed += dt
		cost.ms[k] = float64(dt.Nanoseconds()) / 1e6 / float64(callsPerKey)
		runtime.ReadMemStats(&m1)
		cost.allocs += float64(m1.Mallocs-m0.Mallocs) / float64(callsPerKey)
		cost.kb += float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(callsPerKey)
		ops += c.InterpOps + c.BaselineOps - ops0
	}
	n := float64(len(engs))
	cost.allocs /= n
	cost.kb /= n
	cost.interpMops = float64(ops) / 1e6 / elapsed.Seconds()
	return cost, nil
}

// probeHTM times the HTM model's bookkeeping on footprints that fit: each
// transaction touches probeLines distinct lines.
func probeHTM(ls layerSet, cfg htm.Config) error {
	const probeLines, txs = 256, 400
	s := htm.New(cfg)
	undo := func() {}
	var write, read, commit, abort time.Duration
	for i := 0; i < txs; i++ {
		s.Begin(nil, nil)
		t0 := time.Now()
		for l := uint64(0); l < probeLines; l++ {
			if err := s.RecordWrite(l*64, 8, undo); err != nil {
				return fmt.Errorf("htm probe: %w", err)
			}
		}
		t1 := time.Now()
		for l := uint64(0); l < probeLines; l++ {
			if err := s.RecordRead((probeLines+l)*64, 8); err != nil {
				return fmt.Errorf("htm probe: %w", err)
			}
		}
		t2 := time.Now()
		var err error
		if i%2 == 0 {
			_, err = s.Commit()
			commit += time.Since(t2)
		} else {
			err = s.Abort(htm.AbortCheck)
			abort += time.Since(t2)
		}
		if err != nil {
			return fmt.Errorf("htm probe: %w", err)
		}
		write += t1.Sub(t0)
		read += t2.Sub(t1)
	}
	ls["htm.record_write_ns"] = float64(write.Nanoseconds()) / (txs * probeLines)
	ls["htm.record_read_ns"] = float64(read.Nanoseconds()) / (txs * probeLines)
	ls["htm.commit_ns"] = float64(commit.Nanoseconds()) / (txs / 2)
	ls["htm.abort_ns"] = float64(abort.Nanoseconds()) / (txs / 2)
	return nil
}

// probeCache times cache.Hierarchy.Access on a stream that mostly hits L1
// (three accesses in four walk 16 KB) and otherwise strides through 1 MB,
// past the modeled L2.
func probeCache(ls layerSet) {
	h := cache.NewHierarchy()
	const accesses = 1 << 21
	var sink int64
	start := time.Now()
	for i := uint64(0); i < accesses; i++ {
		addr := (i * 8) & (16<<10 - 1)
		if i%4 == 0 {
			addr = 1<<24 + (i*64)&(1<<20-1)
		}
		sink += h.Access(addr)
	}
	ls["cache.access_ns"] = float64(time.Since(start).Nanoseconds()) / accesses
	_ = sink
}

// probeServing drives a private isolate and code cache the way a pool
// worker does — load, restore, calls, reset — one hot program at a time.
func probeServing(ls layerSet, srcs []string) error {
	const reps = 5
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	cfg.Policy = harness.FastPolicy()
	shared := codecache.NewCache(0)
	programs := codecache.NewPrograms()
	iso := isolate.New(cfg)
	iso.UseCache(shared)

	var reset, load, snapshot, restore, fill, lookup []float64
	resetAllocs := 0.0
	for k, src := range srcs {
		entry, err := programs.Load(src)
		if err != nil {
			return err
		}
		if err := iso.Load(entry); err != nil {
			return err
		}
		for i := 0; i < prewarmCalls; i++ {
			if _, err := iso.VM().CallGlobal("run"); err != nil {
				return err
			}
		}
		t0 := time.Now()
		snap := iso.Snapshot()
		snapshot = append(snapshot, float64(time.Since(t0).Nanoseconds())/1e3)
		if k < 4 {
			f, l := probeCodeCache(iso.VM())
			fill, lookup = append(fill, f...), append(lookup, l...)
		}
		iso.Reset()

		for r := 0; r <= reps; r++ {
			t0 := time.Now()
			if err := iso.Load(entry); err != nil {
				return err
			}
			t1 := time.Now()
			if err := iso.Restore(snap); err != nil {
				return err
			}
			t2 := time.Now()
			for i := 0; i < hotCalls; i++ {
				if _, err := iso.VM().CallGlobal("run"); err != nil {
					return err
				}
			}
			m0 := mallocs()
			t4 := time.Now()
			iso.Reset()
			t5 := time.Now()
			if r == 0 {
				continue // the first repetition fills the cache under the snapshot's profile
			}
			resetAllocs += float64(mallocs() - m0)
			load = append(load, float64(t1.Sub(t0).Nanoseconds())/1e3)
			restore = append(restore, float64(t2.Sub(t1).Nanoseconds())/1e3)
			reset = append(reset, float64(t5.Sub(t4).Nanoseconds())/1e3)
		}
	}
	ls["isolate.reset_us"] = median(reset)
	ls["isolate.reset_allocs"] = resetAllocs / float64(len(reset))
	ls["isolate.load_us"] = median(load)
	ls["isolate.snapshot_us"] = median(snapshot)
	ls["isolate.restore_us"] = median(restore)
	ls["codecache.fill_us"] = median(fill)
	ls["codecache.lookup_ns"] = median(lookup)
	return nil
}

// probeCodeCache fills a private cache with the FTL code of every function
// of the loaded program that has reached the FTL tier, and looks each up
// again: the fill is compile plus manifest extraction, the lookup a hit
// plus the relocation into the VM. Times are per function, in us and ns.
func probeCodeCache(v *vm.VM) (fillUs, lookupNs []float64) {
	cfg := v.Config()
	var fns []*bytecode.Function
	v.EachProfile(func(fn *bytecode.Function, p *profile.FunctionProfile) {
		if cfg.Policy.TierFor(p, cfg.MaxTier) == profile.TierFTL && !p.JITUnsupported {
			fns = append(fns, fn)
		}
	})
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	c := codecache.NewCache(0)
	for _, fn := range fns {
		prof := v.ProfileFor(fn)
		key := codecache.Key{Code: fn, Tier: profile.TierFTL, Arch: uint8(cfg.Arch), Level: core.TxLoopNest, Policy: cfg.Policy, OSR: -1}
		opts := ftl.Options{
			Transactions:   cfg.Arch.UsesTransactions(),
			TxLevel:        core.TxLoopNest,
			CombineBounds:  cfg.Arch.CombinesBoundsChecks(),
			RemoveOverflow: cfg.Arch.RemovesOverflowChecks(),
			Inline:         true,
			Profiles:       v.ProfileFor,
		}
		t0 := time.Now()
		_, _, err := c.Compile(key, v, nil, func() (*ir.Func, error) { return ftl.Compile(fn, prof, opts) })
		if err != nil {
			continue // a function the FTL tier declines has no artifact to cache
		}
		fillUs = append(fillUs, float64(time.Since(t0).Nanoseconds())/1e3)
		const lookups = 200
		t0 = time.Now()
		hits := 0
		for i := 0; i < lookups; i++ {
			if _, st := c.Lookup(key, v, nil); st == codecache.LookupHit {
				hits++
			}
		}
		if hits == lookups {
			lookupNs = append(lookupNs, float64(time.Since(t0).Nanoseconds())/lookups)
		}
	}
	return fillUs, lookupNs
}

// probeEngineLayers runs the probes every workload shares. warm are engines
// already warm at the workload's tier (nil: warm some up here). It returns
// the host time of one run() call on the warm engines, per key, in ms.
func probeEngineLayers(ls layerSet, ids, srcs []string, warm []engine, maxTier profile.Tier, htmCfg htm.Config) ([]float64, error) {
	if err := probeVM(ls); err != nil {
		return nil, err
	}
	const probeCallsPerKey = 3
	// The bytecode tiers: the same programs capped at TierBaseline, which
	// the Baseline threshold of 2 reaches on the third call.
	low := warm
	if maxTier > profile.TierBaseline {
		var err error
		if low, err = warmEngines(ids, srcs, vm.ArchBase, profile.TierBaseline, 3); err != nil {
			return nil, err
		}
	}
	cost, err := measureCalls(low, probeCallsPerKey)
	if err != nil {
		return nil, err
	}
	ls["interp.mops_per_s"] = cost.interpMops
	ls["interp.allocs_per_call"] = cost.allocs
	if maxTier <= profile.TierBaseline {
		return cost.ms, nil // no machine, htm or cache under this tier cap
	}
	if warm == nil {
		if warm, err = warmEngines(ids, srcs, vm.ArchNoMap, maxTier, steadyWarmup); err != nil {
			return nil, err
		}
	}
	if cost, err = measureCalls(warm, probeCallsPerKey); err != nil {
		return nil, err
	}
	ls["machine.allocs_per_call"] = cost.allocs
	ls["machine.kb_per_call"] = cost.kb
	probeCache(ls)
	return cost.ms, probeHTM(ls, htmCfg)
}
