package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nomap/internal/harness"
	"nomap/internal/htm"
	"nomap/internal/pool"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// serve_mix sizes. A block of the schedule holds every hot key hotPerBlock
// times and coldPerBlock never-seen programs, shuffled by the seed, so the
// mix is exact (90% hot) in every block rather than on average.
const (
	serveClients  = 2
	hotCalls      = 2
	coldReqCalls  = 8
	coldFuncs     = 8
	coldCallsEach = 4 // run() calls each function this often, so a cold request's 32 invocations pass the FTL threshold
	hotPerBlock   = 3
	coldPerBlock  = 4
	prewarmCalls  = 48 // ≥ pool.SnapshotMinCalls and past the FTL threshold
)

// serveHotKeys are the twelve AvgS kernels with the shortest run() (sizing:
// 0.7–4 ms per call), so that the pool's own work is a visible share of a
// request.
var serveHotKeys = []string{"S19", "S12", "S16", "S04", "K13", "S10", "K11", "K12", "S01", "S06", "S05", "S15"}

// coldKey is the row all never-seen programs share: each text is served
// once, so they have no per-key distribution of their own.
const coldKey = "cold"

type serveInst struct {
	pool   *pool.Pool
	keys   []string // hot keys, then coldKey
	src    []string // hot sources
	want   [][]string
	base   []float64
	seed   int64
	sched  [serveClients]*schedule // each client's request stream, carried across windows
	events atomic.Int64            // resilience transitions the pool reported
}

func servePoolConfig(arch vm.Arch, tracer func(pool.Event)) pool.Config {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = harness.FastPolicy()
	return pool.Config{Workers: 2, Coalesce: true, VM: cfg, Tracer: tracer}
}

// prewarm serves every hot key once with enough calls to reach the FTL tier
// and save its snapshot, then once more the way the window will, and
// returns the second responses. Two clients share the keys, as in the
// window.
func prewarm(p *pool.Pool, srcs []string) ([]pool.Response, error) {
	out := make([]pool.Response, len(srcs))
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(srcs); k += serveClients {
				if r := p.Do(pool.Request{Source: srcs[k], Calls: prewarmCalls}); r.Err != nil {
					errs[c] = r.Err
					return
				}
				out[k] = p.Do(pool.Request{Source: srcs[k], Calls: hotCalls})
				if out[k].Err != nil {
					errs[c] = out[k].Err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func setupServe(seed int64) (instance, error) {
	srcs, err := kernelSources(serveHotKeys)
	if err != nil {
		return nil, err
	}
	inst := &serveInst{seed: seed, src: srcs, keys: append(append([]string(nil), serveHotKeys...), coldKey)}
	for k, src := range srcs {
		ref, err := reference(src, hotCalls)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", serveHotKeys[k], err)
		}
		inst.want = append(inst.want, ref)
	}

	// The ArchBase pass: the same requests through an identical pool under
	// ArchBase. Cold programs are served once each, so they have no base.
	basePool := pool.New(servePoolConfig(vm.ArchBase, nil))
	baseResp, err := prewarm(basePool, inst.src)
	basePool.Close()
	if err != nil {
		return nil, fmt.Errorf("ArchBase pass: %w", err)
	}
	inst.base = make([]float64, len(inst.keys))
	for k, r := range baseResp {
		inst.base[k] = float64(r.Counters.TotalCycles())
	}

	inst.pool = pool.New(servePoolConfig(vm.ArchNoMap, func(pool.Event) { inst.events.Add(1) }))
	resp, err := prewarm(inst.pool, inst.src)
	if err != nil {
		inst.pool.Close()
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	for k, r := range resp {
		if !r.Warm {
			inst.pool.Close()
			return nil, fmt.Errorf("pre-warm: %s did not start warm", inst.keys[k])
		}
	}
	for c := range inst.sched {
		inst.sched[c] = &schedule{inst: inst, client: c, rng: newRand(seed*7919 + int64(c))}
	}
	return inst, nil
}

func (s *serveInst) close() { s.pool.Close() }

// request is one scheduled request and what came back.
type request struct {
	key      int    // index into keys; len(keys)-1 for a cold program
	src      string // cold programs only
	submit   time.Time
	observed time.Time // traced windows: when the worker finished the calls
	done     time.Time
	resp     pool.Response
}

// schedule draws one client's requests: its i-th request is a function of
// (seed, client, i) alone.
type schedule struct {
	inst   *serveInst
	client int
	rng    *rand.Rand
	block  []int
	drawn  int
}

func (sc *schedule) next() *request {
	if len(sc.block) == 0 {
		hot := len(sc.inst.src)
		for k := 0; k < hot; k++ {
			for j := 0; j < hotPerBlock; j++ {
				sc.block = append(sc.block, k)
			}
		}
		for j := 0; j < coldPerBlock; j++ {
			sc.block = append(sc.block, hot)
		}
		sc.rng.Shuffle(len(sc.block), func(i, j int) { sc.block[i], sc.block[j] = sc.block[j], sc.block[i] })
	}
	r := &request{key: sc.block[0]}
	sc.block = sc.block[1:]
	if r.key == len(sc.inst.src) {
		// A text no request has carried before: the generator writes its
		// seed into the program, and no two draws share one.
		r.src = genProgram(sc.inst.seed*1_000_003+int64(sc.client)*500_009+int64(sc.drawn), coldFuncs, coldCallsEach)
	}
	sc.drawn++
	return r
}

// poolDelta is the pool's own activity over a window.
type poolDelta struct {
	accepted, rejected, retries, coalesceWaits int64
	cacheHits, cacheLookups, cacheEvictions    int64
}

func poolActivity(st pool.Stats) poolDelta {
	c := st.Cache
	return poolDelta{
		accepted: st.Accepted, rejected: st.Rejected, retries: st.Retries, coalesceWaits: st.CoalesceWaits,
		cacheHits: c.Hits, cacheLookups: c.Hits + c.Misses + c.Uncacheable + c.BindFails, cacheEvictions: c.Evictions,
	}
}

func (a poolDelta) sub(b poolDelta) poolDelta {
	return poolDelta{
		a.accepted - b.accepted, a.rejected - b.rejected, a.retries - b.retries, a.coalesceWaits - b.coalesceWaits,
		a.cacheHits - b.cacheHits, a.cacheLookups - b.cacheLookups, a.cacheEvictions - b.cacheEvictions,
	}
}

// runServe is the closed loop: serveClients goroutines, each blocking in
// pool.Do and drawing its next request when the reply arrives, for d.
func (s *serveInst) runServe(d time.Duration, tr *tracer) *windowResult {
	runtime.GC()
	before := readHost()
	poolBefore := poolActivity(s.pool.Stats())
	eventsBefore := s.events.Load()
	done := make([][]*request, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc := s.sched[c]
			for time.Since(start) < d {
				r := sc.next()
				req := pool.Request{Source: r.src, Calls: coldReqCalls}
				if r.key < len(s.src) {
					req = pool.Request{Source: s.src[r.key], Calls: hotCalls}
				}
				if tr != nil {
					req.Observe = func(*vm.VM) { r.observed = time.Now() }
				}
				r.submit = time.Now()
				r.resp = s.pool.Do(req)
				r.done = time.Now()
				done[c] = append(done[c], r)
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()

	w := newWindowResult(s.keys)
	w.seconds = end.Sub(start).Seconds()
	w.setHost(before, readHost())
	w.pool = poolActivity(s.pool.Stats()).sub(poolBefore)
	if n := s.events.Load() - eventsBefore; n != 0 {
		w.fail(fmt.Errorf("pool reported %d resilience transitions", n))
	}

	slice := end.Sub(start) / numBlocks
	perSlice := make([]int, numBlocks)
	for _, reqs := range done {
		var rec *recorder
		if tr != nil {
			rec = newRecorder(tr.rec.t0)
		}
		for _, r := range reqs {
			w.ops++
			b := int(r.done.Sub(start) / slice)
			if b >= numBlocks {
				b = numBlocks - 1
			}
			perSlice[b]++
			if err := s.verify(r); err != nil {
				w.fail(fmt.Errorf("%s: %w", s.keys[r.key], err))
				continue
			}
			if r.key < len(s.src) && !r.resp.Warm {
				w.warmMisses++
			}
			w.ms[r.key] = append(w.ms[r.key], float64(r.done.Sub(r.submit).Nanoseconds())/1e6)
			cyc := r.resp.Counters.TotalCycles()
			w.cycles[r.key] += cyc
			w.modelOps[r.key]++
			w.quietCycles[r.key] += cyc
			w.quietOps[r.key]++
			w.ctrs.Add(&r.resp.Counters)
			if rec != nil {
				rec.op = int32(w.ops)
				rec.begin("op", r.submit)
				rec.leaf("pool.serve", r.submit, r.observed)
				rec.leaf("pool.recycle", r.observed, r.done)
				rec.end(r.done)
			}
		}
		if rec != nil {
			tr.rec.merge(rec)
		}
	}
	for _, n := range perSlice {
		w.blockRates = append(w.blockRates, float64(n)/slice.Seconds())
	}
	return w
}

// verify checks one response against the reference path. A cold program's
// reference is produced here, after the window, because its text did not
// exist before the schedule drew it.
func (s *serveInst) verify(r *request) error {
	if r.resp.Err != nil {
		return r.resp.Err
	}
	want, src := []string(nil), r.src
	if r.key < len(s.src) {
		want = s.want[r.key]
	} else {
		var err error
		if want, err = reference(src, coldReqCalls); err != nil {
			return err
		}
	}
	if len(r.resp.Results) != len(want) {
		return fmt.Errorf("%d results, reference %d", len(r.resp.Results), len(want))
	}
	for i := range want {
		if r.resp.Results[i] != want[i] {
			return fmt.Errorf("call %d: result %q, reference %q", i+1, r.resp.Results[i], want[i])
		}
	}
	return nil
}

func (s *serveInst) window(d time.Duration, tr *tracer) *windowResult { return s.runServe(d, tr) }
func (s *serveInst) baseCycles() []float64                            { return s.base }
func (s *serveInst) repeatable() int                                  { return len(s.src) }

// guard: every hot key was pre-warmed, so every hot response starts warm.
func (s *serveInst) guard(w *windowResult) error {
	if w.warmMisses != 0 {
		return fmt.Errorf("%d hot-key responses were not warm", w.warmMisses)
	}
	return nil
}

func (s *serveInst) probe(ls layerSet, tw *windowResult) error {
	// Front-end inputs: the hot programs and as many cold ones again.
	srcs := append([]string(nil), s.src...)
	for i := range s.src {
		srcs = append(srcs, genProgram(s.seed+int64(i), coldFuncs, coldCallsEach))
	}
	if err := probeFrontend(ls, srcs); err != nil {
		return err
	}
	hot := s.keys[:len(s.src)]
	callMs, err := probeEngineLayers(ls, hot, s.src, nil, profile.TierFTL, htm.ROTConfig())
	if err != nil {
		return err
	}
	if err := probeServing(ls, s.src); err != nil {
		return err
	}
	// What the pool adds to a hot request: its latency against the same
	// calls on a dedicated engine that is already loaded and warm.
	var shares, over []float64
	for k, ms := range callMs {
		if p50 := median(tw.ms[k]); p50 > 0 {
			exec := ms * hotCalls
			shares = append(shares, exec/p50)
			over = append(over, p50-exec)
		}
	}
	ls["pool.exec_share"] = geomean(shares)
	ls["pool.overhead_ms_p50"] = median(over)
	return nil
}
