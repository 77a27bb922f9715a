// Package loadgen is the serving layer's deterministic load generator: a
// seeded open-loop (Poisson) arrival process and a virtual-time
// discrete-event simulator of the pool — workers, bounded queue, warm-start
// keys, cold-start coalescing, and the background compile queue — running
// entirely on the engine's modeled cycle counts.
//
// Why simulate instead of timing wall clocks: the committed BENCH_SERVE.json
// snapshot gates CI at a 2% regression ceiling, which only works if the
// numbers are bit-reproducible across machines and runs. Every quantity here
// is an integer: arrivals come from a quantized inverse-CDF exponential
// table (rounded once at init, so no cross-platform libm drift), service
// times are the engine's deterministic modeled cycles measured by
// MeasureKey, and the event loop advances a virtual clock. cmd/nomap-serve
// -loadgen runs this same simulator at a chosen rate and seed; wall-clock
// numbers for the real pool come from its trace replay and from bench/.
package loadgen

import (
	"container/heap"
	"math"

	"nomap/internal/governor"
	"nomap/internal/stats"
)

// CyclesPerSecond converts modeled cycles to virtual time (a modeled 1 GHz
// core: 1 cycle = 1 ns).
const CyclesPerSecond = 1_000_000_000

// Modeled compilation costs per tier, in cycles (index = profile.Tier).
// Engine cycle accounting covers execution only, so on-path compilation is
// charged explicitly: optimizing JIT compiles are the milliseconds-scale
// events whose removal from the request path is the whole point of the
// background compile queue.
var CompileCost = [4]int64{
	0,         // interp: nothing to compile
	10_000,    // baseline: template emission, cheap
	250_000,   // DFG
	1_000_000, // FTL
}

// Rand is the seeded xorshift64 generator behind every sampling decision.
type Rand struct{ s uint64 }

// NewRand seeds a generator (0 is remapped so the stream never degenerates).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	r.s = governor.XorShift64(r.s)
	return r.s
}

// expQ is the quantized inverse CDF of the unit exponential in 16.16 fixed
// point: expQ[i] ≈ -ln((i+0.5)/len) << 16. Computed once at init and rounded,
// so identical on every platform; draws are pure integer math afterwards.
var expQ = func() [1024]int64 {
	var t [1024]int64
	for i := range t {
		t[i] = int64(math.Round(-math.Log((float64(i)+0.5)/float64(len(t))) * 65536))
	}
	return t
}()

// ExpDraw samples an exponential with the given mean (in cycles).
func (r *Rand) ExpDraw(mean int64) int64 {
	q := expQ[r.Next()&1023]
	return (q * mean) >> 16
}

// KeyProfile is one workload key's measured service costs (modeled cycles),
// produced by MeasureKey. Result pins the workload's output for drift
// detection: a simulation re-measuring a changed engine fails the compare
// gate explicitly rather than silently re-baselining.
type KeyProfile struct {
	Name string `json:"name"`
	// ColdCycles: first-ever request, tiering up on the request path
	// (execution only; on-path compiles add CompileCycles).
	ColdCycles int64 `json:"cold_cycles"`
	// WarmCycles: snapshot-restored request pulling artifacts from the
	// shared code cache.
	WarmCycles int64 `json:"warm_cycles"`
	// BaselineCycles: the request capped at the Baseline tier — what an
	// async-mode cold request pays while its compiles run in the background.
	BaselineCycles int64 `json:"baseline_cycles"`
	// CompileCycles: modeled cost of the compilations a cold run performs.
	CompileCycles int64 `json:"compile_cycles"`
	// Result is the final call's return value (drift detection).
	Result string `json:"result"`
}

// SimConfig parameterizes one virtual-time run.
type SimConfig struct {
	Workers    int   // serving workers (≥1)
	QueueDepth int   // bounded request queue (0 → 4× workers)
	QPS        int64 // open-loop arrival rate (required)
	Requests   int   // arrivals to generate (required)
	Seed       uint64
	Keys       []KeyProfile // drawn uniformly per arrival
	// ColdKeys makes every request its own fresh key (a cold-start burst):
	// the key index still selects the cost profile, but no request shares
	// warm state with another.
	ColdKeys bool
	// Async routes tier-up compilation to the background compile queue
	// (requests pay BaselineCycles until the key's rehearsal finishes);
	// otherwise cold requests compile on the request path. One background
	// worker compiles, as in the pool.
	Async bool
	// Coalesce merges concurrent cold starts of one key: one leader pays the
	// cold cost, followers wait for it and then run warm.
	Coalesce bool
}

// SimResult is one run's outcome.
type SimResult struct {
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	// ThroughputQPS is completed requests per virtual second.
	ThroughputQPS float64 `json:"throughput_qps"`
	// Latency quantiles in virtual microseconds.
	P50  int64 `json:"p50_us"`
	P99  int64 `json:"p99_us"`
	P999 int64 `json:"p999_us"`
	MaxL int64 `json:"max_us"`
	// CompileJobs counts background rehearsals run (async mode).
	CompileJobs int64 `json:"compile_jobs"`
}

// Event kinds, ordered: at equal times, completions precede arrivals so a
// freed worker is visible to the arrival sharing its timestamp.
const (
	evDone = iota
	evCompileDone
	evArrival
)

type ev struct {
	t    int64
	kind int
	seq  int64 // tiebreak: FIFO among equal (t, kind)
	req  int   // arrival/done: request index
	key  int   // compileDone: key index
}

type evHeap []ev

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(ev)) }
func (h *evHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// keyState tracks one key's warm-start progression in the simulator.
type keyState struct {
	prof int // index into cfg.Keys
	// warm: artifacts and snapshot available.
	warm bool
	// warmAt, when >0, is the virtual time warmth lands (sync coalescing
	// leader completion, or async rehearsal completion).
	warmAt int64
	// compileQueued dedups background rehearsals (async).
	compileQueued bool
}

type request struct {
	key     int
	arrival int64
	start   int64
}

// Run executes the simulation and reports throughput and tail latency.
func Run(cfg SimConfig) SimResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	rng := NewRand(cfg.Seed)
	meanGap := CyclesPerSecond / cfg.QPS

	// Pre-draw every arrival (open loop: the schedule never reacts to
	// completions).
	reqs := make([]request, cfg.Requests)
	keys := make([]keyState, 0, len(cfg.Keys))
	for i := range cfg.Keys {
		keys = append(keys, keyState{prof: i})
	}
	var t int64
	for i := range reqs {
		t += rng.ExpDraw(meanGap)
		prof := int(rng.Next() % uint64(len(cfg.Keys)))
		k := prof
		if cfg.ColdKeys {
			// A burst of distinct tenants: every request is its own key.
			keys = append(keys, keyState{prof: prof})
			k = len(keys) - 1
		}
		reqs[i] = request{key: k, arrival: t}
	}

	var (
		h            evHeap
		seq          int64
		freeWorkers  = cfg.Workers
		queue        []int // request indices, FIFO
		compiling    bool  // the compile worker is busy
		compileQueue []int // key indices, FIFO
		hist         stats.Histogram
		res          SimResult
		lastDone     int64
	)
	push := func(at int64, kind, req, key int) {
		seq++
		heap.Push(&h, ev{t: at, kind: kind, seq: seq, req: req, key: key})
	}
	for i := range reqs {
		push(reqs[i].arrival, evArrival, i, 0)
	}

	// service computes a dispatched request's busy time on its worker and
	// updates key warmth bookkeeping.
	service := func(ri int, now int64) int64 {
		k := &keys[reqs[ri].key]
		p := &cfg.Keys[k.prof]
		if k.warm || (k.warmAt > 0 && k.warmAt <= now) {
			k.warm = true
			return p.WarmCycles
		}
		if cfg.Async {
			// Compilation is off-path: run at Baseline, rehearse in the
			// background once per key.
			if !k.compileQueued {
				k.compileQueued = true
				if !compiling {
					compiling = true
					push(now+p.ColdCycles+p.CompileCycles, evCompileDone, 0, reqs[ri].key)
					res.CompileJobs++
				} else {
					compileQueue = append(compileQueue, reqs[ri].key)
				}
			}
			return p.BaselineCycles
		}
		if cfg.Coalesce && k.warmAt > now {
			// Follower: wait out the leader, then run warm.
			return (k.warmAt - now) + p.WarmCycles
		}
		// Cold leader: tier-up compiles run on the request path.
		svc := p.ColdCycles + p.CompileCycles
		k.warmAt = now + svc
		return svc
	}

	dispatch := func(ri int, now int64) {
		freeWorkers--
		reqs[ri].start = now
		push(now+service(ri, now), evDone, ri, 0)
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(ev)
		switch e.kind {
		case evArrival:
			if freeWorkers > 0 {
				dispatch(e.req, e.t)
			} else if len(queue) < cfg.QueueDepth {
				queue = append(queue, e.req)
			} else {
				res.Rejected++
			}
		case evDone:
			freeWorkers++
			res.Completed++
			lastDone = e.t
			hist.Record((e.t - reqs[e.req].arrival) / 1000) // cycles → µs
			k := &keys[reqs[e.req].key]
			if !cfg.Async && k.warmAt > 0 && k.warmAt <= e.t {
				k.warm = true
			}
			if len(queue) > 0 {
				ri := queue[0]
				queue = queue[1:]
				dispatch(ri, e.t)
			}
		case evCompileDone:
			keys[e.key].warm = true
			keys[e.key].warmAt = e.t
			if len(compileQueue) > 0 {
				nk := compileQueue[0]
				compileQueue = compileQueue[1:]
				p := &cfg.Keys[keys[nk].prof]
				push(e.t+p.ColdCycles+p.CompileCycles, evCompileDone, 0, nk)
				res.CompileJobs++
			} else {
				compiling = false
			}
		}
	}

	res.P50 = hist.Quantile(0.50)
	res.P99 = hist.Quantile(0.99)
	res.P999 = hist.Quantile(0.999)
	res.MaxL = hist.Max()
	if lastDone > 0 {
		res.ThroughputQPS = float64(res.Completed) * CyclesPerSecond / float64(lastDone)
	}
	return res
}
