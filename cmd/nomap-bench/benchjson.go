package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nomap/internal/harness"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// benchEntry is one workload's steady-state snapshot under Arch=NoMap.
type benchEntry struct {
	ID        string  `json:"id"`
	Suite     string  `json:"suite"`
	WallMS    float64 `json:"wall_ms"`
	Cycles    int64   `json:"cycles"`
	Instr     int64   `json:"instr"`
	TxCommits int64   `json:"tx_commits"`
	TxAborts  int64   `json:"tx_aborts"`
	// TxCallBlamed counts capacity aborts whose transaction contained a
	// call (§V-C HadCalls blame); the inliner's job is to keep this at zero
	// for monomorphic call-heavy loops.
	TxCallBlamed int64  `json:"tx_call_blamed,omitempty"`
	Deopts       int64  `json:"deopts"`
	OSREntries   int64  `json:"osr_entries"`
	Result       string `json:"result"`
}

// benchSchema is the BENCH_<n>.json schema version measureBench writes.
const benchSchema = 1

// benchFile is the BENCH_<n>.json schema: one record per PR so the perf
// trajectory of the repo is recorded alongside the code.
type benchFile struct {
	Schema    int          `json:"schema"`
	Arch      string       `json:"arch"`
	Warmup    int          `json:"warmup"`
	Measure   int          `json:"measure"`
	Workloads []benchEntry `json:"workloads"`
}

// emitBenchJSON measures every suite under Arch=NoMap at TierFTL and writes
// the snapshot to path.
func emitBenchJSON(path string, cfg harness.Config) error {
	out, err := measureBench(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureBench runs the full snapshot protocol. The OSR suite is measured
// differently on purpose: one cold call, no warm-up and no counter reset,
// because the thing being recorded is the mid-execution tier-up itself
// (OSREntries > 0 in the snapshot proves the single call reached optimized
// code).
func measureBench(cfg harness.Config) (benchFile, error) {
	out := benchFile{Schema: benchSchema, Arch: vm.ArchNoMap.String(), Warmup: cfg.Warmup, Measure: cfg.Measure}

	var steady []workloads.Workload
	steady = append(steady, workloads.SunSpider()...)
	steady = append(steady, workloads.Kraken()...)
	steady = append(steady, workloads.Adversarial()...)
	steady = append(steady, workloads.CallHeavy()...)
	steady = append(steady, workloads.Poly()...)
	steady = append(steady, workloads.Numeric()...)
	for _, w := range steady {
		start := time.Now()
		m, err := harness.Run(w, vm.ArchNoMap, profile.TierFTL, cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.ID, err)
		}
		out.Workloads = append(out.Workloads, snapshot(w, &m.Counters, m.Result, time.Since(start)))
	}
	for _, w := range workloads.OSREntry() {
		e, err := coldCall(w, cfg)
		if err != nil {
			return out, err
		}
		out.Workloads = append(out.Workloads, e)
	}
	for _, wl := range workloads.Contention() {
		e, err := contentionRun(wl)
		if err != nil {
			return out, err
		}
		out.Workloads = append(out.Workloads, e)
	}
	return out, nil
}

// contentionRun snapshots one shared-heap contention workload under the
// seeded scheduler. The interleaving is a pure function of the seed, so the
// cycle total and the final heap state are exact: a changed Result here means
// the concurrency machinery computed a different shared state, and a changed
// cycle count means the abort/backoff/fallback ladder shifted.
func contentionRun(wl *machine.SharedWorkload) (benchEntry, error) {
	start := time.Now()
	res, err := machine.RunScheduled(wl, vm.ArchNoMap, 1, machine.SharedOptions{})
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", wl.Name, err)
	}
	c := res.Merged
	return benchEntry{
		ID:        wl.Name,
		Suite:     "Contention",
		WallMS:    float64(time.Since(start).Microseconds()) / 1000,
		Cycles:    c.TotalCycles(),
		Instr:     c.TotalInstr(),
		TxCommits: c.TxCommits,
		TxAborts:  c.TxAborts,
		Result:    fmt.Sprintf("%s accs=%v", res.Snapshot, res.Accs),
	}, nil
}

// coldCall runs a workload's setup plus exactly one run() invocation on a
// fresh engine and snapshots the whole call, tier-up included.
func coldCall(w workloads.Workload, cfg harness.Config) (benchEntry, error) {
	vcfg := vm.DefaultConfig()
	vcfg.Arch = vm.ArchNoMap
	if cfg.Policy != (profile.Policy{}) {
		vcfg.Policy = cfg.Policy
	}
	v := vm.New(vcfg)
	jit.Attach(v)
	if _, err := v.Run(w.Source); err != nil {
		return benchEntry{}, fmt.Errorf("%s setup: %w", w.ID, err)
	}
	start := time.Now()
	r, err := v.CallGlobal("run")
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s run: %w", w.ID, err)
	}
	return snapshot(w, v.Counters(), r.ToStringValue(), time.Since(start)), nil
}

func snapshot(w workloads.Workload, c *stats.Counters, result string, wall time.Duration) benchEntry {
	return benchEntry{
		ID:           w.ID,
		Suite:        w.Suite,
		WallMS:       float64(wall.Microseconds()) / 1000,
		Cycles:       c.TotalCycles(),
		Instr:        c.TotalInstr(),
		TxCommits:    c.TxCommits,
		TxAborts:     c.TxAborts,
		TxCallBlamed: c.TxCallBlamedAborts,
		Deopts:       c.Deopts,
		OSREntries:   c.OSREntries,
		Result:       result,
	}
}
