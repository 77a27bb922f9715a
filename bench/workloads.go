package main

import (
	"time"

	"nomap/internal/profile"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// instance is a workload that has been set up and can be measured.
type instance interface {
	// window measures for about d; tr is nil for an untraced window.
	window(d time.Duration, tr *tracer) *windowResult
	// baseCycles is the ArchBase modeled cycles of one op, per key (0 for a
	// key with no base).
	baseCycles() []float64
	// repeatable is how many leading keys must cost the same modeled cycles
	// per op in every window of a run.
	repeatable() int
	// guard checks what the workload promises about one window.
	guard(w *windowResult) error
	// probe fills the per-layer metrics that come from direct probes; tw is
	// the traced window.
	probe(ls layerSet, tw *windowResult) error
	close()
}

// workloadDef is one entry of the benchmark's workload table; BENCHMARK.json
// repeats name and why.
type workloadDef struct {
	name string
	why  string
	// setupReps is how often a run sets the workload up; setup_s is the
	// median. The steady workloads' set-up is forty warm-up calls per kernel
	// under two architectures and takes seconds, so they set up once.
	setupReps int
	setup     func(seed int64) (instance, error)
}

// avgS is the paper's AvgS subset of SunSpider and Kraken: 25 kernels.
func avgS() []string {
	var ids []string
	for _, w := range append(workloads.AvgS(workloads.SunSpider()), workloads.AvgS(workloads.Kraken())...) {
		ids = append(ids, w.ID)
	}
	return ids
}

// memHeavy are the kernels whose transactions carry the largest read and
// write footprints.
var memHeavy = []string{"S03", "S13", "S18", "K05", "K06", "K07", "K08", "K14", "N05"}

var workloadTable = []workloadDef{
	{
		name:      "steady_ftl",
		why:       "the paper's 25 AvgS kernels warm at FTL under NoMap: machine, ROT write-set htm and cache do the work; front-end, compilers and pool do none",
		setupReps: 1,
		setup: func(seed int64) (instance, error) {
			return setupSteady(avgS(), vm.ArchNoMap, profile.TierFTL, seed)
		},
	},
	{
		name:      "steady_rtm_mem",
		why:       "memory-heavy kernels under NoMap_RTM: the same machine/htm/cache layers with read-set tracking, an L1-bounded write set, capacity aborts and tiling",
		setupReps: 1,
		setup: func(seed int64) (instance, error) {
			return setupSteady(memHeavy, vm.ArchNoMapRTM, profile.TierFTL, seed)
		},
	},
	{
		name:      "steady_baseline",
		why:       "the same 25 kernels capped at TierBaseline: interp does all the work and machine none, so it bypasses every machine-loop optimisation",
		setupReps: 1,
		setup: func(seed int64) (instance, error) {
			return setupSteady(avgS(), vm.ArchNoMap, profile.TierBaseline, seed)
		},
	},
	{
		name:      "cold_wide",
		why:       "fresh engine, load, 28 calls of wide flat-profile programs: the only traffic where lexer, parser, bytecode, ir, opt, core, dfg and ftl carry the op",
		setupReps: 3,
		setup:     setupCold,
	},
	{
		name:      "serve_mix",
		why:       "the real pool.Pool, 2 closed-loop clients, 90% warm hot keys and 10% never-seen programs: pool, isolate and codecache, lookups beside fills",
		setupReps: 3,
		setup:     setupServe,
	},
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloadTable {
		if workloadTable[i].name == name {
			return &workloadTable[i], true
		}
	}
	return nil, false
}
