// Serving benchmark: deterministic throughput/tail-latency snapshots and the
// regression gate over them. Scenarios run on the virtual-time simulator in
// internal/loadgen, parameterized by per-key service costs measured from the
// real engine (MeasureKey), so BENCH_SERVE.json is bit-reproducible: CI can
// hold a 2% ceiling on throughput and p99 without cross-machine noise, and a
// self-compare is exactly +0.00%.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"nomap/internal/loadgen"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// spinSource is the compile-dominated cold-burst workload: calls are cheap,
// but enough of them trigger optimizing tier-up, so on-path compilation is
// the bulk of a cold request's cost — the shape the background compile
// queue exists to fix.
const spinSource = `
function run(n) {
  var s = 0;
  for (var i = 0; i < 4; i++) {
    s = (s + i * n) | 0;
  }
  return s;
}
`

// steadyIDs are the warm-traffic keys for the steady scenario, drawn from
// the serving mix.
var steadyIDs = []string{"S01", "S03", "K01"}

const benchCalls = 12 // run() invocations per request, matching the replay trace

type serveScenario struct {
	Name     string `json:"name"`
	Workers  int    `json:"workers"`
	QPS      int64  `json:"qps"`
	Requests int    `json:"requests"`
	Seed     uint64 `json:"seed"`
	Async    bool   `json:"async,omitempty"`
	Coalesce bool   `json:"coalesce,omitempty"`
	ColdKeys bool   `json:"cold_keys,omitempty"`
	// Keys pins the measured per-key cost profiles (and their results, for
	// drift detection) alongside the scenario outcome.
	Keys   []loadgen.KeyProfile `json:"keys"`
	Result loadgen.SimResult    `json:"result"`
}

// serveBenchSchema is the BENCH_SERVE.json version measureServeBench writes.
const serveBenchSchema = 1

// serveBenchFile is the BENCH_SERVE.json schema.
type serveBenchFile struct {
	Schema    int             `json:"schema"`
	Arch      string          `json:"arch"`
	Scenarios []serveScenario `json:"scenarios"`
}

// scenarioQPS derives the arrival rate from the measured service cost so the
// scenario always runs at ~70% utilization of the serving workers: a faster
// engine is offered proportionally more load, and the snapshot's throughput
// number tracks engine capacity rather than an arbitrary constant.
func scenarioQPS(workers int, serviceCycles int64) int64 {
	q := int64(workers) * (loadgen.CyclesPerSecond * 7 / 10) / serviceCycles
	if q < 1 {
		q = 1
	}
	return q
}

// measureServeBench measures every scenario with the current engine.
func measureServeBench(cfg vm.Config) (serveBenchFile, error) {
	out := serveBenchFile{Schema: serveBenchSchema, Arch: cfg.Arch.String()}

	var steadyKeys []loadgen.KeyProfile
	var warmSum int64
	for _, id := range steadyIDs {
		w, ok := workloads.ByID(id)
		if !ok {
			return out, fmt.Errorf("serve bench: unknown workload %q", id)
		}
		kp, err := loadgen.MeasureKey(id, w.Source, benchCalls, 0, cfg)
		if err != nil {
			return out, err
		}
		steadyKeys = append(steadyKeys, kp)
		warmSum += kp.WarmCycles
	}
	spin, err := loadgen.MeasureKey("spin", spinSource, 64, 3, cfg)
	if err != nil {
		return out, err
	}

	const workers = 8
	scens := []serveScenario{
		{
			// Warm-heavy steady traffic: repeat requests over a small key
			// set, coalescing the initial cold stampede.
			Name: "steady", Workers: workers, Requests: 10000, Seed: 1,
			Coalesce: true,
			QPS:      scenarioQPS(workers, warmSum/int64(len(steadyKeys))),
			Keys:     steadyKeys,
		},
		{
			// Cold-start burst, tier-up compiles on the request path.
			Name: "coldburst-sync", Workers: workers, Requests: 3000, Seed: 2,
			ColdKeys: true,
			QPS:      scenarioQPS(workers, spin.ColdCycles+spin.CompileCycles),
			Keys:     []loadgen.KeyProfile{spin},
		},
		{
			// Same burst at the same offered load, compiles deferred to the
			// background queue: the A/B that justifies the compile queue.
			Name: "coldburst-async", Workers: workers, Requests: 3000, Seed: 2,
			ColdKeys: true, Async: true,
			QPS:  scenarioQPS(workers, spin.ColdCycles+spin.CompileCycles),
			Keys: []loadgen.KeyProfile{spin},
		},
	}
	for i := range scens {
		s := &scens[i]
		s.Result = loadgen.Run(loadgen.SimConfig{
			Workers:    s.Workers,
			QueueDepth: 256,
			QPS:        s.QPS,
			Requests:   s.Requests,
			Seed:       s.Seed,
			Keys:       s.Keys,
			ColdKeys:   s.ColdKeys,
			Async:      s.Async,
			Coalesce:   s.Coalesce,
		})
	}
	out.Scenarios = scens
	return out, nil
}

func printScenario(s serveScenario) {
	fmt.Printf("  %-16s %8.0f qps  p50 %6dµs  p99 %6dµs  p999 %6dµs  max %6dµs  (%d ok, %d rejected, %d compile jobs)\n",
		s.Name, s.Result.ThroughputQPS, s.Result.P50, s.Result.P99, s.Result.P999,
		s.Result.MaxL, s.Result.Completed, s.Result.Rejected, s.Result.CompileJobs)
}

// emitServeBench measures all scenarios and writes the snapshot to path.
func emitServeBench(path string, cfg vm.Config) error {
	out, err := measureServeBench(cfg)
	if err != nil {
		return err
	}
	for _, s := range out.Scenarios {
		printScenario(s)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// comparableWith refuses a baseline of another schema, or one whose service
// costs were measured under another architecture: the difference would read
// as a regression, or a win, that is neither.
func (old serveBenchFile) comparableWith(arch vm.Arch) error {
	if old.Schema != serveBenchSchema || old.Arch != arch.String() {
		return fmt.Errorf("baseline is schema %d under arch %q, this run measures schema %d under %v",
			old.Schema, old.Arch, serveBenchSchema, arch)
	}
	return nil
}

// compareServe re-measures the scenarios and diffs them against a committed
// baseline. Gates: a workload result pinned in any key profile must not
// drift (a throughput win can never be bought with a wrong answer), and per
// scenario the throughput must not drop — nor the p99 rise — by more than
// maxRegress percent. p999 and max are reported but not gated: at
// microsecond scale one histogram bucket exceeds any reasonable ceiling.
func compareServe(oldPath, jsonOut string, maxRegress float64, cfg vm.Config) error {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	var old serveBenchFile
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	if err := old.comparableWith(cfg.Arch); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	cur, err := measureServeBench(cfg)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		out, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}

	oldByName := make(map[string]serveScenario, len(old.Scenarios))
	for _, s := range old.Scenarios {
		oldByName[s.Name] = s
	}

	var drift, gate []string
	pct := func(cur, old float64) float64 { return (cur/old - 1) * 100 }
	fmt.Printf("serving deltas vs %s (throughput: negative = slower; latency: positive = worse):\n", oldPath)
	for _, s := range cur.Scenarios {
		o, ok := oldByName[s.Name]
		if !ok {
			fmt.Printf("  %-16s (new scenario, not gated)\n", s.Name)
			continue
		}
		oldKeys := make(map[string]string, len(o.Keys))
		for _, k := range o.Keys {
			oldKeys[k.Name] = k.Result
		}
		for _, k := range s.Keys {
			if r, ok := oldKeys[k.Name]; ok && r != k.Result {
				drift = append(drift, fmt.Sprintf("%s/%s: %q -> %q", s.Name, k.Name, r, k.Result))
			}
		}
		dTput := pct(s.Result.ThroughputQPS, o.Result.ThroughputQPS)
		dP99 := pct(float64(s.Result.P99), float64(o.Result.P99))
		dP999 := pct(float64(s.Result.P999), float64(o.Result.P999))
		fmt.Printf("  %-16s throughput %+7.2f%%  p99 %+7.2f%%  p999 %+7.2f%%\n", s.Name, dTput, dP99, dP999)
		if -dTput > maxRegress {
			gate = append(gate, fmt.Sprintf("%s: throughput regressed %.2f%% (limit %.2f%%)", s.Name, -dTput, maxRegress))
		}
		if dP99 > maxRegress {
			gate = append(gate, fmt.Sprintf("%s: p99 regressed %.2f%% (limit %.2f%%)", s.Name, dP99, maxRegress))
		}
	}

	if len(drift) > 0 {
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "result drift: %s\n", d)
		}
		return fmt.Errorf("%d workload result(s) drifted from the baseline", len(drift))
	}
	if len(gate) > 0 {
		for _, g := range gate {
			fmt.Fprintln(os.Stderr, g)
		}
		return fmt.Errorf("%d serving metric(s) regressed past the %.2f%% ceiling", len(gate), maxRegress)
	}
	return nil
}

// runLoadgen is the exploratory load-generator mode: measure the selected
// workloads, then simulate the requested open-loop arrival rate and report
// throughput and tail latency.
// checkLoadgenFlags rejects arrival settings the simulator cannot run: it
// spaces arrivals by CyclesPerSecond/qps and draws requests of them.
func checkLoadgenFlags(qps int64, requests int) error {
	if qps <= 0 {
		return fmt.Errorf("-qps must be positive, got %d", qps)
	}
	if requests <= 0 {
		return fmt.Errorf("-requests must be positive, got %d", requests)
	}
	return nil
}

func runLoadgen(cfg vm.Config, mix []workloads.Workload, workers, queueDepth, calls, requests int,
	qps int64, seed uint64, coalesce, async bool) error {
	var keys []loadgen.KeyProfile
	for _, w := range mix {
		kp, err := loadgen.MeasureKey(w.ID, w.Source, calls, 0, cfg)
		if err != nil {
			return err
		}
		keys = append(keys, kp)
		fmt.Printf("  key %-6s cold %9d cy  warm %9d cy  baseline %9d cy  compile %9d cy\n",
			kp.Name, kp.ColdCycles, kp.WarmCycles, kp.BaselineCycles, kp.CompileCycles)
	}
	res := loadgen.Run(loadgen.SimConfig{
		Workers:    workers,
		QueueDepth: queueDepth,
		QPS:        qps,
		Requests:   requests,
		Seed:       seed,
		Keys:       keys,
		Async:      async,
		Coalesce:   coalesce,
	})
	fmt.Printf("nomap-serve loadgen: %d arrivals at %d qps on %d workers [%s] (seed %d, coalesce=%v, async=%v)\n",
		requests, qps, workers, cfg.Arch, seed, coalesce, async)
	fmt.Printf("  throughput     %.0f req/s (virtual time)\n", res.ThroughputQPS)
	fmt.Printf("  completed      %d ok, %d rejected\n", res.Completed, res.Rejected)
	fmt.Printf("  latency        p50 %dµs  p99 %dµs  p999 %dµs  max %dµs\n", res.P50, res.P99, res.P999, res.MaxL)
	if async {
		fmt.Printf("  compile queue  %d background rehearsals\n", res.CompileJobs)
	}
	return nil
}
