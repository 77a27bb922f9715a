package main

import (
	"runtime"
	"strings"

	"nomap/internal/profile"
	"nomap/internal/stats"
)

// tracedLayers turns the traced window — its spans, the tracer's counts and
// the engine counters — into per-layer metrics. uw is the untraced window of
// the same run, the reference for the tracing overhead.
func tracedLayers(ls layerSet, uw, tw *windowResult, tr *tracer) {
	ops := float64(tw.ops - tw.failed)
	rec := tr.rec
	opNs := float64(rec.layer("op").TotalNs)
	exec := rec.layer("jit.execute")
	share := func(ns int64) float64 { return ratio(float64(ns), opNs) }

	// Compile pipeline: every pass span, by the layer its name starts with.
	var compileNs int64
	for _, name := range rec.layerNames() {
		switch name[:strings.IndexByte(name+".", '.')] {
		case "ir", "opt", "core", "dfg":
			compileNs += rec.layer(name).TotalNs
		}
	}
	perCall := func(name string) float64 {
		lt := rec.layer(name)
		return ratio(float64(lt.TotalNs)/1e3, float64(lt.Count))
	}
	ls["ir.build_us_per_fn"] = perCall("ir.build")
	ls["opt.hoist_type_checks_us"] = perCall("opt.hoist_type_checks")
	ls["opt.gvn_us"] = perCall("opt.gvn")
	ls["opt.licm_us"] = perCall("opt.licm")
	ls["opt.promote_loop_stores_us"] = perCall("opt.promote_loop_stores")
	ls["opt.dce_us"] = perCall("opt.dce")
	ls["opt.simplify_cfg_us"] = perCall("opt.simplify_cfg")
	ls["core.form_transactions_us"] = perCall("core.form_transactions")
	ls["core.combine_bounds_us"] = perCall("core.combine_bounds")
	ls["core.remove_overflow_us"] = perCall("core.remove_overflow")
	ftlCompiles := float64(tr.compiles[tierFTL])
	ls["ir.values_per_fn"] = ratio(float64(tr.valuesBuilt), float64(rec.layer("ir.build").Count))
	ls["opt.values_removed_share"] = 1 - ratio(float64(tr.valuesOut), float64(tr.valuesIn))
	if tr.valuesIn == 0 {
		ls["opt.values_removed_share"] = 0
	}
	ls["core.tx_regions_per_fn"] = ratio(float64(tr.txRegions), float64(rec.layer("core.form_transactions").Count))
	ls["core.checks_removed_share"] = ratio(float64(tr.checksCut), float64(tr.checksIn))
	ls["dfg.compile_us_per_fn"] = ratio(float64(tr.compileNs[tierDFG])/1e3, float64(tr.compiles[tierDFG]))
	ls["ftl.compile_us_per_fn"] = ratio(float64(tr.compileNs[tierFTL])/1e3, ftlCompiles)
	ls["ftl.values_after_per_fn"] = ratio(float64(tr.valuesOut), ftlCompiles)
	ls["jit.compile_ms_per_op"] = ratio(float64(compileNs)/1e6, ops)
	ls["jit.compile_share"] = share(compileNs)

	// Where the op's host time went. Compiled code re-enters the backend
	// for its callees, so jit.execute's self time is the machine plus any
	// lower-tier callee below it; the op's own self time is the bytecode
	// tiers and vm.Call above it.
	ls["machine.self_share"] = share(exec.SelfNs)
	ls["interp.self_share"] = share(rec.layer("op").SelfNs + rec.layer("vm.run_main").SelfNs)
	ls["parser.self_share"] = share(rec.layer("parser.parse").SelfNs)
	ls["bytecode.self_share"] = share(rec.layer("bytecode.compile").SelfNs)

	// The counters cover the modeled range and the spans the whole window:
	// compare per op.
	c := &tw.ctrs
	modelOps := tw.modelOpsTotal()
	instrPerOp := ratio(ftlInstr(c), modelOps)
	execNsPerOp := ratio(float64(exec.SelfNs), ops)
	ls["machine.sim_minstr_per_s"] = ratio(instrPerOp/1e6, execNsPerOp/1e9)
	ls["machine.ns_per_sim_instr"] = ratio(execNsPerOp, instrPerOp)
	ls["jit.execute_calls_per_op"] = ratio(float64(tr.execCalls+tr.osrCalls), ops)
	ls["governor.recompiles_per_kop"] = ratio(float64(tr.recompiles)*1000, ops)
	ls["htm.read_lines_per_tx"] = ratio(float64(tr.readLines)/ops, float64(c.TxBegins)/modelOps)

	ls["bench.trace_overhead_share"] = 1 - ratio(opsPerSecond(tw), opsPerSecond(uw))
}

// ftlInstr is the dynamic instruction count of FTL code, the machine's work.
func ftlInstr(c *stats.Counters) float64 {
	return float64(c.Instr[stats.NoTM] + c.Instr[stats.TMUnopt] + c.Instr[stats.TMOpt])
}

// counterLayers are the per-layer metrics that come from the engine's own
// counters and the Go runtime; they need no tracer.
func counterLayers(ls layerSet, w *windowResult) {
	// The engine counters cover the modeled range, the pool's and the Go
	// runtime's the whole window.
	ops := w.modelOpsTotal()
	c := &w.ctrs
	instr := ftlInstr(c)
	ls["jit.compiles_per_op"] = ratio(float64(c.Compilations[profile.TierDFG]+c.Compilations[profile.TierFTL]), ops)
	ls["jit.osr_entries_per_op"] = ratio(float64(c.OSREntries), ops)
	ls["jit.deopts_per_op"] = ratio(float64(c.Deopts+c.TxAborts), ops)
	ls["machine.instr_per_op"] = ratio(instr, ops)
	ls["machine.checks_per_100_instr"] = ratio(float64(c.TotalChecks())*100, instr)
	ls["machine.tm_cycle_share"] = ratio(float64(c.CyclesTM), float64(c.TotalCycles()))
	ls["htm.squashed_cycle_share"] = ratio(float64(c.CyclesSquashed), float64(c.TotalCycles()))
	ls["htm.tx_per_op"] = ratio(float64(c.TxBegins), ops)
	ls["htm.commit_share"] = ratio(float64(c.TxCommits), float64(c.TxBegins))
	ls["htm.capacity_aborts_per_kop"] = ratio(float64(c.TxCapacityAborts)*1000, ops)
	ls["htm.write_lines_per_tx"] = ratio(float64(c.TxWriteLinesTotal), float64(c.TxBegins))

	ops = float64(w.ops - w.failed)
	p := w.pool
	hotOps := 0
	for k := 0; k < len(w.ms)-1; k++ {
		hotOps += len(w.ms[k])
	}
	if p.accepted > 0 {
		ls["pool.warm_share"] = 1 - ratio(float64(w.warmMisses), float64(hotOps))
		// The one workload where a caller waits on single ops and thousands
		// are pooled, so the one place a p99 has enough samples beyond it.
		ls["pool.latency_ms_p99"] = quantile(sortedCopy(w.pooled()), 0.99)
	}
	ls["pool.rejected_share"] = ratio(float64(p.rejected), float64(p.accepted+p.rejected))
	ls["pool.retries_per_kop"] = ratio(float64(p.retries)*1000, ops)
	ls["pool.coalesce_waits_per_kop"] = ratio(float64(p.coalesceWaits)*1000, ops)
	ls["codecache.hit_share"] = ratio(float64(p.cacheHits), float64(p.cacheLookups))
	ls["codecache.evictions_per_kop"] = ratio(float64(p.cacheEvictions)*1000, ops)

	ls["bench.heap_peak_mb"] = w.heapPeakMB
	ls["bench.gc_cpu_share"] = ratio(w.gcCPUSec, w.seconds*float64(runtime.GOMAXPROCS(0)))
}

// opsPerSecond is the median throughput of the window's slices.
func opsPerSecond(w *windowResult) float64 { return median(w.blockRates) }

// endToEndMetrics computes the end-to-end metrics of an untraced window.
func endToEndMetrics(w *windowResult, base []float64, setupSeconds float64) map[string]float64 {
	ops := float64(w.ops - w.failed)
	var cycles int64
	speedups := make([]float64, len(w.keys))
	for k := range w.keys {
		cycles += w.cycles[k]
		if w.cycles[k] > 0 {
			speedups[k] = base[k] / (float64(w.cycles[k]) / float64(w.modelOps[k]))
		}
	}
	return map[string]float64{
		"setup_s":                 setupSeconds,
		"ops_per_s":               opsPerSecond(w),
		"op_ms_p50":               perKeyGeomean(w.ms, 0.5),
		"op_ms_p90":               perKeyGeomean(w.ms, 0.9),
		"modeled_cycles_per_op":   ratio(float64(cycles), w.modelOpsTotal()),
		"modeled_speedup_vs_base": geomean(speedups),
		"allocs_per_op":           ratio(float64(w.mallocs), ops),
	}
}
