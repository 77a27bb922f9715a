// nomap-serve replays a mixed, repeat-heavy workload trace through the
// multi-isolate serving layer and reports throughput, latency percentiles,
// code-cache effectiveness, and warm-start coverage. It is both the serving
// layer's demonstration driver and its smoke check: with -verify (default)
// every pooled response is compared against a dedicated cold isolate, and
// with -min-hit-rate the process exits nonzero when the shared code cache
// underperforms — the assertion CI runs. With -chaos a deterministic fault
// plan is injected (isolate panics, compile failures, wedged isolates,
// corrupt snapshots); failures are then expected, reported per taxonomy
// class, and the run asserts every scheduled fault fired and the fleet
// converged back to healthy — the chaos soak CI runs.
package main

import (
	"flag"
	"fmt"
	"nomap/internal/stats"
	"os"
	"strings"
	"time"

	"nomap/internal/chaos"
	"nomap/internal/codecache"
	"nomap/internal/isolate"
	"nomap/internal/pool"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func main() {
	var (
		workers    = flag.Int("workers", 4, "pool worker isolates")
		queue      = flag.Int("queue", 0, "queue depth (0 = 4x workers)")
		repeat     = flag.Int("repeat", 6, "times each program is requested")
		calls      = flag.Int("calls", 12, "run() invocations per request")
		archName   = flag.String("arch", "NoMap", "architecture configuration")
		programs   = flag.String("programs", "", "comma-separated workload IDs (default: serving mix)")
		timeout    = flag.Duration("timeout", 0, "per-request deadline (0 = none)")
		minHitRate = flag.Float64("min-hit-rate", 0, "exit nonzero if code-cache hit rate falls below this")
		verify     = flag.Bool("verify", true, "check every response against a dedicated cold isolate")
		chaosSpec  = flag.String("chaos", "", `deterministic fault plan, e.g. "panic@3,compile-fail@1,slow-isolate@5" (injected failures are expected and reported per class)`)

		coalesce     = flag.Bool("coalesce", false, "coalesce concurrent cold starts of one key behind a single leader")
		asyncCompile = flag.Bool("async-compile", false, "move tier-up compilation off the request path onto the background compile queue")
		slo          = flag.Duration("slo", 0, "latency SLO for compile-queue admission control (0 = no admission gating)")

		loadgenMode = flag.Bool("loadgen", false, "load-generator mode: seeded open-loop (Poisson) arrivals on the virtual-time simulator")
		qps         = flag.Int64("qps", 10000, "loadgen arrival rate (requests per virtual second)")
		requests    = flag.Int("requests", 10000, "loadgen arrivals to generate")
		seed        = flag.Uint64("seed", 1, "loadgen arrival-process seed")
		benchOut    = flag.String("bench", "", "measure the serving benchmark scenarios and write BENCH_SERVE.json to this path")
		comparePath = flag.String("compare", "", "compare a fresh measurement against this committed BENCH_SERVE.json and gate on regressions")
		jsonOut     = flag.String("json", "", "with -compare: also write the fresh measurement to this path")
		maxRegress  = flag.Float64("max-regress", 2.0, "with -compare: max tolerated throughput drop / p99 rise, percent")
	)
	flag.Parse()

	arch, ok := vm.ParseArch(*archName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown arch %q\n", *archName)
		os.Exit(2)
	}
	mix := servingMix(*programs)
	if len(mix) == 0 {
		fmt.Fprintln(os.Stderr, "no workloads selected")
		os.Exit(2)
	}

	cfg := vm.DefaultConfig()
	cfg.Arch = arch

	// Benchmark and load-generator modes run on the virtual-time simulator
	// (deterministic, so the committed snapshot gates CI); the trace replay
	// below exercises the real pool.
	if *benchOut != "" {
		if err := emitServeBench(*benchOut, cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *comparePath != "" {
		if err := compareServe(*comparePath, *jsonOut, *maxRegress, cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *loadgenMode {
		if err := checkLoadgenFlags(*qps, *requests); err != nil {
			fmt.Fprintf(os.Stderr, "nomap-serve: %v\n", err)
			os.Exit(2)
		}
		if err := runLoadgen(cfg, mix, *workers, *queue, *calls, *requests,
			*qps, *seed, *coalesce, *asyncCompile); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var plan *chaos.Plan
	if *chaosSpec != "" {
		var err error
		plan, err = chaos.ParsePlan(int64(cfg.RandomSeed), *chaosSpec)
		if err != nil {
			fatalf("%v", err)
		}
	}
	p := pool.New(pool.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		VM:           cfg,
		Coalesce:     *coalesce,
		AsyncCompile: *asyncCompile,
		SLO:          *slo,
		Chaos:        plan,
	})

	// Cold references, one dedicated isolate per program: the behaviour the
	// pool must reproduce byte-for-byte.
	type refRun struct {
		results []string
		output  []string
	}
	refs := make(map[string]refRun, len(mix))
	if *verify {
		for _, w := range mix {
			iso := isolate.New(cfg)
			progs := codecache.NewPrograms()
			entry, err := progs.Load(w.Source)
			if err != nil {
				fatalf("%s: %v", w.ID, err)
			}
			if err := iso.Load(entry); err != nil {
				fatalf("%s: cold load: %v", w.ID, err)
			}
			var rr refRun
			for i := 0; i < *calls; i++ {
				v, err := iso.VM().CallGlobal("run", value.Int(0))
				if err != nil {
					fatalf("%s: cold run: %v", w.ID, err)
				}
				rr.results = append(rr.results, v.ToStringValue())
			}
			rr.output = append([]string(nil), iso.VM().Output...)
			refs[w.ID] = rr
		}
	}

	// Trace: round-robin over the mix so later waves hit warm state.
	type tagged struct {
		id string
		ch <-chan pool.Response
	}
	var (
		inflight []tagged
		lat      stats.Histogram
		mismatch int
		failed   int
	)
	drainOne := func() {
		t := inflight[0]
		inflight = inflight[1:]
		resp := <-t.ch
		if resp.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: [%s] %v\n", t.id, pool.Classify(resp.Err), resp.Err)
			return
		}
		lat.Record(resp.Latency.Microseconds())
		if *verify {
			ref := refs[t.id]
			if strings.Join(resp.Results, "\n") != strings.Join(ref.results, "\n") ||
				strings.Join(resp.Output, "\n") != strings.Join(ref.output, "\n") {
				mismatch++
				fmt.Fprintf(os.Stderr, "%s: pooled response diverges from cold isolate\n", t.id)
			}
		}
	}

	start := time.Now()
	total := 0
	for r := 0; r < *repeat; r++ {
		for _, w := range mix {
			req := pool.Request{Source: w.Source, Calls: *calls, Timeout: *timeout}
			for {
				ch, err := p.Submit(req)
				if err == pool.ErrQueueFull {
					// Backpressure: absorb it by completing the oldest
					// in-flight request, then retry.
					if len(inflight) == 0 {
						fatalf("%s: queue full with nothing in flight", w.ID)
					}
					drainOne()
					continue
				}
				if err != nil {
					fatalf("%s: %v", w.ID, err)
				}
				inflight = append(inflight, tagged{id: w.ID, ch: ch})
				total++
				break
			}
		}
	}
	for len(inflight) > 0 {
		drainOne()
	}
	elapsed := time.Since(start)
	p.Close()

	st := p.Stats()
	fmt.Printf("nomap-serve: %d requests (%d programs x %d repeats, %d calls each) on %d workers [%s]\n",
		total, len(mix), *repeat, *calls, *workers, arch)
	fmt.Printf("  wall time      %v  (%.1f req/s)\n", elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	if lat.Count() > 0 {
		fmt.Printf("  latency        p50 %dµs  p90 %dµs  p99 %dµs  p999 %dµs  max %dµs\n",
			lat.Quantile(0.50), lat.Quantile(0.90), lat.Quantile(0.99),
			lat.Quantile(0.999), lat.Max())
	}
	fmt.Printf("  completed      %d ok, %d failed, %d rejected\n", st.Completed, st.Failed, st.Rejected)
	if st.Failed > 0 {
		var parts []string
		for _, class := range pool.Classes() {
			if n := st.FailedBy[class]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", class, n))
			}
		}
		fmt.Printf("  failures       %s\n", strings.Join(parts, ", "))
	}
	if plan != nil || st.Crashes > 0 || st.Health.Degraded() {
		fmt.Printf("  resilience     %d crashes contained, %d isolates replaced, %d retries, %d degrade steps, %d repromotions, %d sheds, %d snapshot rejects\n",
			st.Crashes, st.Replacements, st.Retries, st.DegradeSteps,
			st.Repromotions, st.Sheds, st.SnapshotRejects)
		fmt.Printf("  health         cap=%v ceiling=%v degraded=%v shedding=%v\n",
			st.Health.Cap, st.Health.Ceiling, st.Health.Degraded(), st.Health.Shed)
	}
	fmt.Printf("  code cache     %d hits, %d misses, %d evictions, %d bind-fails, %d uncacheable (hit rate %.1f%%)\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.BindFails,
		st.Cache.Uncacheable, 100*st.Cache.HitRate())
	fmt.Printf("  snapshots      %d restores (%d stored)\n", st.Counters.SnapshotRestores, st.Snapshots.Size)
	if *coalesce {
		fmt.Printf("  coalescing     %d leads, %d follower waits\n", st.CoalesceLeads, st.CoalesceWaits)
	}
	if *asyncCompile {
		fmt.Printf("  compile queue  %d jobs (%d done, %d shed, %d down-tiered)\n",
			st.CompileJobs, st.CompileDone, st.CompileSheds, st.CompileDownTiers)
	}
	fmt.Printf("  ftl compiles   %s\n", ftlCompileSummary(p))

	if mismatch > 0 {
		fatalf("%d pooled responses diverged from cold isolates", mismatch)
	}
	if plan != nil {
		// Under chaos, injected failures are the point; the assertions are
		// that every scheduled fault fired and the fleet converged back.
		if !plan.Exhausted() {
			fatalf("chaos plan %v did not fire every scheduled fault", plan)
		}
		if st.Health.Degraded() {
			fatalf("fleet did not recover from chaos: cap=%v ceiling=%v shedding=%v",
				st.Health.Cap, st.Health.Ceiling, st.Health.Shed)
		}
	} else if failed > 0 {
		fatalf("%d requests failed", failed)
	}
	if *minHitRate > 0 && st.Cache.HitRate() < *minHitRate {
		fatalf("code-cache hit rate %.3f below required %.3f", st.Cache.HitRate(), *minHitRate)
	}
}

// ftlCompileSummary reports the warm-start acceptance metric: FTL fill
// counts per (function, arch) group, flagging any group compiled more than
// once.
func ftlCompileSummary(p *pool.Pool) string {
	fills := p.Cache().FillCounts()
	total, groups, worst := int64(0), 0, int64(0)
	for g, n := range fills {
		if g.Tier != profile.TierFTL {
			continue
		}
		groups++
		total += n
		if n > worst {
			worst = n
		}
	}
	return fmt.Sprintf("%d across %d (function, arch) groups (max %d per group)", total, groups, worst)
}

// servingMix selects the trace's program set: an explicit ID list, or the
// default mix of AvgS-style loop kernels plus the four adversarial
// workloads (A01-A04) that stress the abort-recovery governor.
func servingMix(ids string) []workloads.Workload {
	if ids != "" {
		var out []workloads.Workload
		for _, id := range strings.Split(ids, ",") {
			w, ok := workloads.ByID(strings.TrimSpace(id))
			if !ok {
				fatalf("unknown workload %q", id)
			}
			out = append(out, w)
		}
		return out
	}
	var out []workloads.Workload
	for _, id := range []string{"S01", "S03", "S05", "S07", "K01", "K02"} {
		if w, ok := workloads.ByID(id); ok {
			out = append(out, w)
		}
	}
	out = append(out, workloads.Adversarial()...)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
