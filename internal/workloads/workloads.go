// Package workloads re-expresses the SunSpider and Kraken benchmark suites
// (plus a Shootout-style set for the paper's Figure 1) in the engine's
// JavaScript subset. Each workload mirrors the computational character of
// the original benchmark — the same kinds of loops, data structures, and
// check pressure — at a size that keeps simulated runs fast.
//
// Every workload defines setup code plus a run() function; the harness
// warms run() until it reaches the FTL tier, resets the counters, and
// measures steady state, exactly like the paper's methodology (§VI).
//
// The paper's Table III classification is preserved: benchmarks it excludes
// from AvgS are built to exhibit the excluding property — S02/S08/S09
// compute results that NoMap's DCE can treat as dead, and the
// string/regexp/JSON benchmarks spend ≥95% of their instructions outside
// FTL code (generic runtime calls and builtin methods).
package workloads

import "slices"

// Workload is one benchmark.
type Workload struct {
	// ID is the paper's index within its suite ("S01".."S26", "K01".."K14").
	ID string
	// Name is the original benchmark's name.
	Name string
	// Suite is "SunSpider", "Kraken", or "Shootout".
	Suite string
	// Source is the program: setup code plus a run() function.
	Source string
	// InAvgS reports membership in the paper's AvgS subset (Table III).
	InAvgS bool
	// Iterations scales how many run() calls constitute one measured rep.
	Iterations int
}

// SunSpider returns the 26 SunSpider-like workloads (S01..S26).
func SunSpider() []Workload { return sunspider }

// Kraken returns the 14 Kraken-like workloads (K01..K14).
func Kraken() []Workload { return kraken }

// Shootout returns the Shootout-like workloads used for Figure 1.
func Shootout() []Workload { return shootout }

// All returns the workloads of every suite.
func All() []Workload {
	return slices.Concat(sunspider, kraken, shootout, adversarial, osrEntry, callHeavy, poly, numeric)
}

// ByID finds a workload by its ID in any suite.
func ByID(id string) (Workload, bool) {
	for _, w := range All() {
		if w.ID == id {
			return w, true
		}
	}
	return Workload{}, false
}

// AvgS filters a suite to the paper's AvgS subset.
func AvgS(ws []Workload) []Workload {
	var out []Workload
	for _, w := range ws {
		if w.InAvgS {
			out = append(out, w)
		}
	}
	return out
}
