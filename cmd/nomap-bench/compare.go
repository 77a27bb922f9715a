package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"nomap/internal/harness"
	"nomap/internal/vm"
)

// baselineProtocol returns cfg under the protocol old records: cycles are
// totals over Measure calls after Warmup calls, so only a snapshot repeating
// both is comparable — and none this binary takes is, across schema or arch.
func baselineProtocol(old benchFile, cfg harness.Config) (harness.Config, error) {
	if old.Schema != benchSchema || old.Arch != vm.ArchNoMap.String() {
		return cfg, fmt.Errorf("baseline is schema %d under arch %q, this binary measures schema %d under %v",
			old.Schema, old.Arch, benchSchema, vm.ArchNoMap)
	}
	cfg.Warmup, cfg.Measure = old.Warmup, old.Measure
	return cfg, nil
}

// compareBench measures a fresh snapshot with the current engine, diffs its
// simulated cycles against a committed baseline file, and fails (non-nil
// error) when the geometric-mean regression exceeds maxRegress percent.
// Results are part of the contract too: a workload whose steady-state result
// drifted from the baseline is an error regardless of its cycle count, so a
// "speedup" can never be bought with a wrong answer. Workloads present on
// only one side (suite additions or removals) are reported but excluded from
// the geomean. -warmup/-measure do not apply: the baseline's protocol does.
func compareBench(oldPath, jsonOut string, maxRegress float64, cfg harness.Config) error {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	var old benchFile
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	if cfg, err = baselineProtocol(old, cfg); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	cur, err := measureBench(cfg)
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

	oldByID := make(map[string]benchEntry, len(old.Workloads))
	for _, e := range old.Workloads {
		oldByID[e.ID] = e
	}

	type suiteAcc struct {
		logSum float64
		n      int
	}
	suites := map[string]*suiteAcc{}
	var suiteOrder []string
	total := suiteAcc{}
	var resultDrift []string

	fmt.Printf("cycle deltas vs %s at its protocol, warmup %d measure %d (negative = faster):\n", oldPath, cfg.Warmup, cfg.Measure)
	for _, e := range cur.Workloads {
		o, ok := oldByID[e.ID]
		delete(oldByID, e.ID)
		if !ok {
			fmt.Printf("  %-6s %-12s %12d cycles  (new workload, excluded from geomean)\n", e.ID, e.Suite, e.Cycles)
			continue
		}
		if o.Result != e.Result {
			resultDrift = append(resultDrift, fmt.Sprintf("%s: %q -> %q", e.ID, o.Result, e.Result))
		}
		if o.Cycles <= 0 || e.Cycles <= 0 {
			continue
		}
		ratio := float64(e.Cycles) / float64(o.Cycles)
		fmt.Printf("  %-6s %-12s %12d -> %12d  %+7.2f%%\n", e.ID, e.Suite, o.Cycles, e.Cycles, (ratio-1)*100)
		acc := suites[e.Suite]
		if acc == nil {
			acc = &suiteAcc{}
			suites[e.Suite] = acc
			suiteOrder = append(suiteOrder, e.Suite)
		}
		acc.logSum += math.Log(ratio)
		acc.n++
		total.logSum += math.Log(ratio)
		total.n++
	}
	removed := make([]string, 0, len(oldByID))
	for id := range oldByID {
		removed = append(removed, id)
	}
	sort.Strings(removed)
	for _, id := range removed {
		fmt.Printf("  %-6s (in baseline only, excluded from geomean)\n", id)
	}

	fmt.Println()
	for _, s := range suiteOrder {
		acc := suites[s]
		fmt.Printf("  %-12s geomean %+7.2f%%  (%d workloads)\n", s, (math.Exp(acc.logSum/float64(acc.n))-1)*100, acc.n)
	}
	if total.n == 0 {
		return fmt.Errorf("no common workloads between %s and the current suite", oldPath)
	}
	overall := math.Exp(total.logSum/float64(total.n)) - 1
	fmt.Printf("  %-12s geomean %+7.2f%%  (%d workloads)\n", "overall", overall*100, total.n)

	if len(resultDrift) > 0 {
		for _, d := range resultDrift {
			fmt.Fprintf(os.Stderr, "result drift: %s\n", d)
		}
		return fmt.Errorf("%d workload result(s) drifted from the baseline", len(resultDrift))
	}
	if overall*100 > maxRegress {
		return fmt.Errorf("overall cycle geomean regressed %.2f%% (limit %.2f%%)", overall*100, maxRegress)
	}
	return nil
}
