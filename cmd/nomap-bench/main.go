// nomap-bench regenerates the paper's evaluation: Table I, Figure 1,
// Figure 3, the §III-A2 deoptimization counts, Figures 8-11, and Table IV.
//
// Usage:
//
//	nomap-bench                     # run every experiment
//	nomap-bench -experiment fig8    # one experiment
//	nomap-bench -warmup 80 -measure 30
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"nomap/internal/harness"
	"nomap/internal/pool"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func main() {
	experiment := flag.String("experiment", "all",
		"experiment to run: all|table1|fig1|fig3|deoptfreq|fig8|fig9|fig10|fig11|table4|recovery|appendix")
	warmup := flag.Int("warmup", 60, "warm-up run() calls before measuring")
	measure := flag.Int("measure", 20, "measured steady-state run() calls")
	parallel := flag.Int("parallel", 0,
		"fan the benchmark suite across a K-worker isolate pool instead of running experiments; "+
			"per-benchmark results are verified against a serial pass before any speedup is reported")
	jsonOut := flag.String("json", "",
		"write a BENCH_<n>.json perf snapshot (per-workload steady-state timings and counters "+
			"under Arch=NoMap, plus cold single-call OSR workloads) to this path instead of running experiments")
	compare := flag.String("compare", "",
		"measure a fresh snapshot and print per-workload, per-suite, and overall geomean cycle "+
			"deltas against this baseline BENCH_<n>.json, under its own warmup/measure (the flags "+
			"are ignored); -json also writes the fresh snapshot; exits non-zero past -max-regress")
	maxRegress := flag.Float64("max-regress", 2.0,
		"with -compare: fail when the overall cycle geomean regresses by more than this percent")
	verbose := flag.Bool("v", false, "print per-measurement progress")
	flag.Parse()

	if *parallel > 0 {
		if err := runParallel(*parallel, *measure); err != nil {
			fmt.Fprintf(os.Stderr, "nomap-bench: -parallel: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.DefaultConfig()
	cfg.Warmup = *warmup
	cfg.Measure = *measure

	if *compare != "" {
		start := time.Now()
		if err := compareBench(*compare, *jsonOut, *maxRegress, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "nomap-bench: -compare: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("compared against %s in %.1fs\n", *compare, time.Since(start).Seconds())
		return
	}
	if *jsonOut != "" {
		start := time.Now()
		if err := emitBenchJSON(*jsonOut, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "nomap-bench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %.1fs\n", *jsonOut, time.Since(start).Seconds())
		return
	}
	if *verbose {
		cfg.Progress = func(w workloads.Workload, arch vm.Arch) {
			fmt.Fprintf(os.Stderr, "  measured %s (%s) under %v\n", w.ID, w.Name, arch)
		}
	}

	type exp struct {
		name string
		run  func(harness.Config) (*harness.Table, error)
	}
	experiments := []exp{
		{"table1", harness.Table1},
		{"fig1", harness.Figure1},
		{"fig3", func(c harness.Config) (*harness.Table, error) { return figurePair(c, harness.Figure3) }},
		{"deoptfreq", harness.DeoptFrequency},
		{"fig8", func(c harness.Config) (*harness.Table, error) { return harness.InstructionFigure("SunSpider", c) }},
		{"fig9", func(c harness.Config) (*harness.Table, error) { return harness.InstructionFigure("Kraken", c) }},
		{"fig10", func(c harness.Config) (*harness.Table, error) { return harness.TimeFigure("SunSpider", c) }},
		{"fig11", func(c harness.Config) (*harness.Table, error) { return harness.TimeFigure("Kraken", c) }},
		{"table4", harness.Table4},
		{"recovery", harness.RecoveryTable},
		{"appendix", harness.AppendixValidation},
	}

	ran := 0
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran++
		start := time.Now()
		t, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomap-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "nomap-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// runParallel fans the benchmark suite (SunSpider + Kraken + the
// adversarial programs) across a K-worker isolate pool and reports the
// wall-clock speedup over a 1-worker serial pass of the same trace.
// Correctness comes first: every parallel response is verified
// byte-identical to its serial counterpart before any number is printed.
// The speedup is real parallelism only when GOMAXPROCS cores back the
// workers; on a single-core host the expected ratio is ~1x and the run
// still verifies the differential guarantee.
func runParallel(k, calls int) error {
	var suite []workloads.Workload
	suite = append(suite, workloads.SunSpider()...)
	suite = append(suite, workloads.Kraken()...)
	suite = append(suite, workloads.Adversarial()...)
	const repeats = 3

	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	cfg.Policy = harness.FastPolicy()

	type pass struct {
		wall    time.Duration
		results map[string][]string
	}
	runPass := func(workers int) (pass, error) {
		p := pool.New(pool.Config{
			Workers:    workers,
			QueueDepth: repeats * len(suite),
			VM:         cfg,
		})
		defer p.Close()
		type tag struct {
			id string
			ch <-chan pool.Response
		}
		start := time.Now()
		var inflight []tag
		for r := 0; r < repeats; r++ {
			for _, w := range suite {
				ch, err := p.Submit(pool.Request{Source: w.Source, Calls: calls})
				if err != nil {
					return pass{}, fmt.Errorf("%s: %w", w.ID, err)
				}
				inflight = append(inflight, tag{id: w.ID, ch: ch})
			}
		}
		out := pass{results: make(map[string][]string, len(suite))}
		for _, t := range inflight {
			resp := <-t.ch
			if resp.Err != nil {
				return pass{}, fmt.Errorf("%s: %w", t.id, resp.Err)
			}
			if prev, ok := out.results[t.id]; ok {
				for i := range resp.Results {
					if resp.Results[i] != prev[i] {
						return pass{}, fmt.Errorf("%s: repeat diverges within one pass", t.id)
					}
				}
			} else {
				out.results[t.id] = resp.Results
			}
		}
		out.wall = time.Since(start)
		return out, nil
	}

	serial, err := runPass(1)
	if err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	par, err := runPass(k)
	if err != nil {
		return fmt.Errorf("parallel pass: %w", err)
	}
	for id, want := range serial.results {
		got, ok := par.results[id]
		if !ok || len(got) != len(want) {
			return fmt.Errorf("%s: parallel pass lost results", id)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s call %d: parallel %q != serial %q — refusing to report a speedup for wrong answers",
					id, i, got[i], want[i])
			}
		}
	}
	fmt.Printf("nomap-bench -parallel: %d benchmarks x %d repeats x %d calls, all results verified against serial\n",
		len(suite), repeats, calls)
	fmt.Printf("  serial   (1 worker):  %v\n", serial.wall.Round(time.Millisecond))
	fmt.Printf("  parallel (%d workers): %v\n", k, par.wall.Round(time.Millisecond))
	fmt.Printf("  speedup: %.2fx on %d CPU(s) (GOMAXPROCS %d; expect ~1x when workers outnumber cores)\n",
		serial.wall.Seconds()/par.wall.Seconds(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	return nil
}

// figurePair runs Figure 3 for both suites and merges the tables.
func figurePair(cfg harness.Config, f func(string, harness.Config) (*harness.Table, error)) (*harness.Table, error) {
	a, err := f("SunSpider", cfg)
	if err != nil {
		return nil, err
	}
	b, err := f("Kraken", cfg)
	if err != nil {
		return nil, err
	}
	a.Title += "\n\n" + b.Render()
	return a, nil
}
