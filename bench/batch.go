package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"nomap/internal/bytecode"
	"nomap/internal/harness"
	"nomap/internal/htm"
	"nomap/internal/jit"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// engine is one VM with its speculative-tier backend.
type engine struct {
	v *vm.VM
	b *jit.Backend
}

func newEngine(arch vm.Arch, maxTier profile.Tier) engine {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = maxTier
	cfg.Policy = harness.FastPolicy()
	v := vm.New(cfg)
	return engine{v: v, b: jit.Attach(v)}
}

// reference produces the expected per-call results of a program from a path
// that shares nothing with the tier under test beyond the front-end: a VM
// capped at TierInterp under ArchBase, with no JIT backend attached.
func reference(src string, calls int) ([]string, error) {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierInterp
	v := vm.New(cfg)
	if _, err := v.Run(src); err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	out := make([]string, calls)
	for i := range out {
		r, err := v.CallGlobal("run")
		if err != nil {
			return nil, fmt.Errorf("reference call %d: %w", i+1, err)
		}
		out[i] = r.ToStringValue()
	}
	return out, nil
}

// windowResult is what one timed window measured.
type windowResult struct {
	keys []string
	ms   [][]float64 // per key, the host time of each op
	// The modeled clock is read over a fixed range — the first modelRounds
	// rounds of a batch window, every op of a serve window — so that it
	// does not depend on how many rounds the host managed: cycles and
	// modelOps are per key, ctrs are the engine counters over that range.
	cycles   []int64
	modelOps []int64
	ctrs     stats.Counters
	// quietCycles and quietOps cover, over the whole window, the ops during
	// which the engine neither aborted nor compiled. A stationary kernel
	// costs the same cycles in every such op, which is what the traced and
	// untraced windows of one run are compared on.
	quietCycles []int64
	quietOps    []int64
	ops         int
	failed      int
	fault       error // the first failed op
	seconds     float64
	// blockRates is the throughput of consecutive equal slices of the
	// window; ops_per_s is their median, so one stall of the box moves one
	// slice and not the result.
	blockRates []float64
	mallocs    uint64
	gcCPUSec   float64
	heapPeakMB float64
	// warmMisses counts hot-key responses that were not warm (serve_mix).
	warmMisses int
	pool       poolDelta
}

func newWindowResult(keys []string) *windowResult {
	n := len(keys)
	return &windowResult{keys: keys, ms: make([][]float64, n), cycles: make([]int64, n), modelOps: make([]int64, n),
		quietCycles: make([]int64, n), quietOps: make([]int64, n)}
}

// modelOpsTotal is the number of ops in the modeled range.
func (w *windowResult) modelOpsTotal() float64 {
	var n int64
	for _, k := range w.modelOps {
		n += k
	}
	return float64(n)
}

func (w *windowResult) pooled() []float64 {
	var all []float64
	for _, xs := range w.ms {
		all = append(all, xs...)
	}
	return all
}

func (w *windowResult) fail(err error) {
	w.failed++
	if w.fault == nil {
		w.fault = err
	}
}

// hostMeter reads the Go runtime's allocation and GC counters around a
// window.
type hostMeter struct {
	ms    runtime.MemStats
	gcCPU float64
}

func readHost() hostMeter {
	var h hostMeter
	runtime.ReadMemStats(&h.ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = gc[0].Value.Float64()
	}
	return h
}

func (w *windowResult) setHost(before, after hostMeter) {
	w.mallocs = after.ms.Mallocs - before.ms.Mallocs
	w.gcCPUSec = after.gcCPU - before.gcCPU
	w.heapPeakMB = float64(after.ms.HeapSys) / (1 << 20)
}

// batchOps is a workload whose ops run one after another on one goroutine.
type batchOps interface {
	keyNames() []string
	// beginWindow zeroes the engine counters and, when tr is non-nil,
	// installs it on the engines.
	beginWindow(tr *tracer)
	// runOp runs one op of key k and returns the modeled cycles it took and
	// whether it was quiet: no abort and no compilation on an engine that
	// was warm before it. An error is a failed op: an engine error or a
	// result that differs from the reference.
	runOp(k int, tr *tracer) (cycles int64, quiet bool, err error)
	// counters returns the engine counters accumulated since beginWindow.
	counters() stats.Counters
	// endWindow removes the tracer.
	endWindow()
}

// modelRounds is the length of the range the modeled clock is read over.
// Forty warm-up calls and sixteen rounds end at call 56 of every kernel,
// before the governor's first probationary re-promotion (call 73 on the
// kernels that retreated during warm-up), so the range holds the same calls
// on a fast host and a slow one.
const modelRounds = 16

// numBlocks is how many slices a window is cut into for ops_per_s.
const numBlocks = 6

// runBatch runs whole rounds — every key once, in the seeded order — until
// d has passed.
func runBatch(inst batchOps, order []int, d time.Duration, tr *tracer) *windowResult {
	keys := inst.keyNames()
	w := newWindowResult(keys)
	inst.beginWindow(tr)
	runtime.GC()
	before := readHost()
	var roundEnds []time.Duration
	start := time.Now()
	for {
		for _, k := range order {
			t0 := time.Now()
			if tr != nil {
				tr.rec.op = int32(w.ops)
				tr.rec.begin("op", t0)
			}
			cyc, quiet, err := inst.runOp(k, tr)
			t1 := time.Now()
			if tr != nil {
				tr.rec.end(t1)
			}
			w.ops++
			if err != nil {
				w.fail(fmt.Errorf("%s: %w", keys[k], err))
				continue
			}
			w.ms[k] = append(w.ms[k], float64(t1.Sub(t0).Nanoseconds())/1e6)
			if len(roundEnds) < modelRounds {
				w.cycles[k] += cyc
				w.modelOps[k]++
			}
			if quiet {
				w.quietCycles[k] += cyc
				w.quietOps[k]++
			}
		}
		elapsed := time.Since(start)
		roundEnds = append(roundEnds, elapsed)
		done := elapsed >= d
		if len(roundEnds) == modelRounds || (done && len(roundEnds) < modelRounds) {
			w.ctrs = inst.counters()
		}
		if done {
			break
		}
	}
	w.seconds = time.Since(start).Seconds()
	w.setHost(before, readHost())
	inst.endWindow()

	// Slices are runs of whole rounds; the last takes the remainder.
	rounds := len(roundEnds)
	blocks := min(numBlocks, rounds)
	per := rounds / blocks
	prev := time.Duration(0)
	for b := 0; b < blocks; b++ {
		end := (b + 1) * per
		if b == blocks-1 {
			end = rounds
		}
		n := (end - b*per) * len(order)
		w.blockRates = append(w.blockRates, float64(n)/(roundEnds[end-1]-prev).Seconds())
		prev = roundEnds[end-1]
	}
	return w
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// keyOrder is the seeded fixed order in which a round visits the keys.
func keyOrder(n int, seed int64) []int { return newRand(seed).Perm(n) }

// ---- steady workloads ----

const steadyWarmup = 40

// steadyInst holds one warm engine per kernel; an op is one run() call.
type steadyInst struct {
	ids     []string
	srcs    []string
	order   []int
	maxTier profile.Tier
	htm     htm.Config
	eng     []engine
	want    []string // the reference result of every call
	base    []float64
}

// kernelSources resolves workload IDs to their program texts.
func kernelSources(ids []string) ([]string, error) {
	srcs := make([]string, len(ids))
	for i, id := range ids {
		w, ok := workloads.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", id)
		}
		srcs[i] = w.Source
	}
	return srcs, nil
}

// warmEngines loads every program into its own engine and calls run() calls
// times.
func warmEngines(ids, srcs []string, arch vm.Arch, maxTier profile.Tier, calls int) ([]engine, error) {
	engs := make([]engine, len(srcs))
	for i, src := range srcs {
		e := newEngine(arch, maxTier)
		if _, err := e.v.Run(src); err != nil {
			return nil, fmt.Errorf("%s load: %w", ids[i], err)
		}
		for c := 0; c < calls; c++ {
			if _, err := e.v.CallGlobal("run"); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", ids[i], err)
			}
		}
		engs[i] = e
	}
	return engs, nil
}

// setupSteady builds a steady workload over the given kernels. The engines
// under test warm up on one goroutine while the other produces the
// reference results and the ArchBase cycles — the box has two cores and
// both halves are the same size.
func setupSteady(ids []string, arch vm.Arch, maxTier profile.Tier, seed int64) (instance, error) {
	srcs, err := kernelSources(ids)
	if err != nil {
		return nil, err
	}
	inst := &steadyInst{ids: ids, srcs: srcs, order: keyOrder(len(ids), seed), maxTier: maxTier, htm: htm.ROTConfig(),
		want: make([]string, len(ids)), base: make([]float64, len(ids))}
	if arch.HeavyweightHTM() {
		inst.htm = htm.RTMConfig()
	}
	warmed := make(chan error, 1)
	go func() {
		var err error
		inst.eng, err = warmEngines(ids, srcs, arch, maxTier, steadyWarmup)
		warmed <- err
	}()
	err = func() error {
		for i, src := range srcs {
			// The kernels are written to return the same value on every
			// call; two reference calls check that before it is relied on.
			ref, err := reference(src, 2)
			if err != nil {
				return fmt.Errorf("%s: %w", ids[i], err)
			}
			if ref[0] != ref[1] {
				return fmt.Errorf("%s: reference result changes between calls (%q, %q)", ids[i], ref[0], ref[1])
			}
			inst.want[i] = ref[0]
		}
		baseEng, err := warmEngines(ids, srcs, vm.ArchBase, maxTier, steadyWarmup)
		if err != nil {
			return fmt.Errorf("ArchBase pass: %w", err)
		}
		for i, e := range baseEng {
			before := e.v.Counters().TotalCycles()
			if _, err := e.v.CallGlobal("run"); err != nil {
				return fmt.Errorf("ArchBase pass %s: %w", ids[i], err)
			}
			inst.base[i] = float64(e.v.Counters().TotalCycles() - before)
		}
		return nil
	}()
	if werr := <-warmed; werr != nil {
		return nil, werr
	}
	if err != nil {
		return nil, err
	}
	return inst, nil
}

func (s *steadyInst) keyNames() []string { return s.ids }

func (s *steadyInst) beginWindow(tr *tracer) {
	for _, e := range s.eng {
		e.v.ResetCounters()
		if tr != nil {
			tr.attach(e.v, e.b)
		}
	}
}

// engineEvents counts what makes an op not quiet.
func engineEvents(c *stats.Counters) int64 {
	return c.TxAborts + c.Compilations[profile.TierDFG] + c.Compilations[profile.TierFTL]
}

func (s *steadyInst) runOp(k int, _ *tracer) (int64, bool, error) {
	v := s.eng[k].v
	c := v.Counters()
	cycles, events := c.TotalCycles(), engineEvents(c)
	r, err := v.CallGlobal("run")
	if err != nil {
		return 0, false, err
	}
	if got := r.ToStringValue(); got != s.want[k] {
		return 0, false, fmt.Errorf("result %q, reference %q", got, s.want[k])
	}
	return c.TotalCycles() - cycles, engineEvents(c) == events, nil
}

func (s *steadyInst) counters() stats.Counters {
	var total stats.Counters
	for _, e := range s.eng {
		total.Add(e.v.Counters())
	}
	return total
}

func (s *steadyInst) endWindow() {
	for _, e := range s.eng {
		detach(e.v, e.b)
	}
}

func (s *steadyInst) window(d time.Duration, tr *tracer) *windowResult {
	return runBatch(s, s.order, d, tr)
}
func (s *steadyInst) baseCycles() []float64 { return s.base }
func (s *steadyInst) repeatable() int       { return len(s.ids) }
func (s *steadyInst) close()                {}

// guard: warm-up really finished. Tier-up is over when nothing runs in the
// interpreter or the DFG tier any more and nothing compiles — except that
// the abort-recovery governor recompiles a function around a probationary
// re-promotion (calls 73 and 169 of the kernels that retreated during
// warm-up), which is the engine's steady state and always comes with an
// abort on the same engine.
func (s *steadyInst) guard(*windowResult) error {
	for k, e := range s.eng {
		c := e.v.Counters()
		switch {
		case c.InterpOps != 0 || c.DFGCalls != 0 || c.Compilations[profile.TierDFG] != 0:
			return fmt.Errorf("%s: warm-up had not finished: %d interpreter ops, %d DFG calls, %d DFG compilations inside the window",
				s.ids[k], c.InterpOps, c.DFGCalls, c.Compilations[profile.TierDFG])
		case c.Compilations[profile.TierFTL] != 0 && c.TxAborts == 0:
			return fmt.Errorf("%s: warm-up had not finished: %d FTL compilations inside the window and no abort to explain them",
				s.ids[k], c.Compilations[profile.TierFTL])
		}
	}
	return nil
}

func (s *steadyInst) probe(ls layerSet, _ *windowResult) error {
	if err := probeFrontend(ls, s.srcs); err != nil {
		return err
	}
	_, err := probeEngineLayers(ls, s.ids, s.srcs, s.eng, s.maxTier, s.htm)
	return err
}

// ---- cold_wide ----

// coldCalls is K: the run() calls one cold op makes after loading. Each call
// adds 1 + genTrip/16 to a generated function's tier-up count, so 28 calls
// take every function through DFG and, on call 27, into FTL.
const coldCalls = 28

// coldInst holds program texts; an op builds a fresh engine, loads the text
// and calls run() coldCalls times.
type coldInst struct {
	ids   []string
	src   []string
	order []int
	want  [][]string
	base  []float64
	agg   stats.Counters
}

// coldSources returns the cold_wide keys: seeded generated programs of three
// widths, two of each, plus three small real programs.
func coldSources(seed int64) (ids, srcs []string, err error) {
	for _, n := range []int{48, 64, 96} {
		for j := int64(0); j < 2; j++ {
			ids = append(ids, fmt.Sprintf("gen%d.%d", n, j))
			srcs = append(srcs, genProgram(seed*1000+int64(n)*10+j, n, 1))
		}
	}
	real := []string{"A01", "A04", "K10"}
	realSrcs, err := kernelSources(real)
	return append(ids, real...), append(srcs, realSrcs...), err
}

func setupCold(seed int64) (instance, error) {
	ids, srcs, err := coldSources(seed)
	if err != nil {
		return nil, err
	}
	inst := &coldInst{ids: ids, src: srcs, order: keyOrder(len(ids), seed), want: make([][]string, len(ids)), base: make([]float64, len(ids))}
	for k, src := range srcs {
		if inst.want[k], err = reference(src, coldCalls); err != nil {
			return nil, fmt.Errorf("%s: %w", ids[k], err)
		}
	}
	// One untimed round per architecture: the ArchBase cycles, and a first
	// pass of the workload's own ops so the Go heap is sized before timing.
	for k := range srcs {
		cyc, err := inst.coldOp(k, vm.ArchBase, nil)
		if err != nil {
			return nil, fmt.Errorf("ArchBase pass %s: %w", ids[k], err)
		}
		inst.base[k] = float64(cyc)
		if _, err := inst.coldOp(k, vm.ArchNoMap, nil); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", ids[k], err)
		}
	}
	return inst, nil
}

func (c *coldInst) keyNames() []string { return c.ids }

func (c *coldInst) beginWindow(*tracer) { c.agg.Reset() }

func (c *coldInst) counters() stats.Counters { return c.agg }

func (c *coldInst) endWindow() {}

// Every cold op starts from a fresh engine, so every op of a key is the
// same computation: all of them count as quiet.
func (c *coldInst) runOp(k int, tr *tracer) (int64, bool, error) {
	cycles, err := c.coldOp(k, vm.ArchNoMap, tr)
	return cycles, true, err
}

// coldOp is what a library user's Engine.Run plus coldCalls Engine.Call
// cost from source text: vm.Run is exactly Parse, Compile, RunMain, spelled
// out here so that the traced run can put a span on each.
func (c *coldInst) coldOp(k int, arch vm.Arch, tr *tracer) (int64, error) {
	stamp := func(name string, t0 time.Time) time.Time {
		if tr == nil {
			return t0
		}
		now := time.Now()
		tr.rec.leaf(name, t0, now)
		return now
	}
	var t time.Time
	if tr != nil {
		t = time.Now()
	}
	e := newEngine(arch, profile.TierFTL)
	t = stamp("vm.new", t)
	if tr != nil {
		tr.attach(e.v, e.b)
		t = time.Now()
	}
	prog, err := parser.Parse(c.src[k])
	if err != nil {
		return 0, err
	}
	t = stamp("parser.parse", t)
	main, err := bytecode.Compile(prog)
	if err != nil {
		return 0, err
	}
	t = stamp("bytecode.compile", t)
	if tr != nil {
		tr.rec.begin("vm.run_main", t)
	}
	_, err = e.v.RunMain(main)
	if tr != nil {
		tr.rec.end(time.Now())
	}
	if err != nil {
		return 0, err
	}
	for i := 0; i < coldCalls; i++ {
		r, err := e.v.CallGlobal("run")
		if err != nil {
			return 0, fmt.Errorf("call %d: %w", i+1, err)
		}
		if got := r.ToStringValue(); got != c.want[k][i] {
			return 0, fmt.Errorf("call %d: result %q, reference %q", i+1, got, c.want[k][i])
		}
	}
	c.agg.Add(e.v.Counters())
	return e.v.Counters().TotalCycles(), nil
}

func (c *coldInst) window(d time.Duration, tr *tracer) *windowResult {
	return runBatch(c, c.order, d, tr)
}
func (c *coldInst) baseCycles() []float64     { return c.base }
func (c *coldInst) repeatable() int           { return len(c.ids) }
func (c *coldInst) guard(*windowResult) error { return nil }
func (c *coldInst) close()                    {}

func (c *coldInst) probe(ls layerSet, _ *windowResult) error {
	if err := probeFrontend(ls, c.src); err != nil {
		return err
	}
	_, err := probeEngineLayers(ls, c.ids, c.src, nil, profile.TierFTL, htm.ROTConfig())
	return err
}
