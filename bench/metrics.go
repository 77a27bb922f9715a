package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root repeats these tables for the driver; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, all measured with
// tracing off. README.md defines each.
//
// The bounds of the host-clock metrics are what this box allows, not what
// one would like: an idle two-core VM here moves a cache-resident ALU loop
// by ±7% from second to second and whole runs by up to 1.8× in phases of a
// minute or two (README.md, "How steady the box is"), so ten-run spreads of
// 3–36% were measured and the bounds sit at the largest value the driver
// accepts. The modeled clock and
// the allocation count are exact, and their bounds are tight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"modeled_cycles_per_op", "cycles", "lower", 0.005},
	{"modeled_speedup_vs_base", "ratio", "higher", 0.005},
	{"allocs_per_op", "count", "lower", 0.02},
}

// perLayer are the metrics of single layers, named layer.metric after the
// package that does the work. They come from the traced window and from
// direct probes on the workload's own inputs; a layer a workload does not
// use reads 0 there.
var perLayer = []metricDef{
	// front-end
	{Name: "lexer.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "parser.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "parser.allocs_per_kb", Unit: "count", Better: "lower"},
	{Name: "bytecode.compile_us_per_fn", Unit: "us", Better: "lower"},
	{Name: "bytecode.instrs_out", Unit: "count", Better: "lower"},
	{Name: "bytecode.fused_share", Unit: "ratio", Better: "higher"},
	{Name: "parser.self_share", Unit: "ratio", Better: "lower"},
	{Name: "bytecode.self_share", Unit: "ratio", Better: "lower"},
	// compile pipeline (pass hook, traced window)
	{Name: "ir.build_us_per_fn", Unit: "us", Better: "lower"},
	{Name: "ir.values_per_fn", Unit: "count", Better: "lower"},
	{Name: "opt.hoist_type_checks_us", Unit: "us", Better: "lower"},
	{Name: "opt.gvn_us", Unit: "us", Better: "lower"},
	{Name: "opt.licm_us", Unit: "us", Better: "lower"},
	{Name: "opt.promote_loop_stores_us", Unit: "us", Better: "lower"},
	{Name: "opt.dce_us", Unit: "us", Better: "lower"},
	{Name: "opt.simplify_cfg_us", Unit: "us", Better: "lower"},
	{Name: "opt.values_removed_share", Unit: "ratio", Better: "higher"},
	{Name: "core.form_transactions_us", Unit: "us", Better: "lower"},
	{Name: "core.combine_bounds_us", Unit: "us", Better: "lower"},
	{Name: "core.remove_overflow_us", Unit: "us", Better: "lower"},
	{Name: "core.tx_regions_per_fn", Unit: "count", Better: "higher"},
	{Name: "core.checks_removed_share", Unit: "ratio", Better: "higher"},
	{Name: "dfg.compile_us_per_fn", Unit: "us", Better: "lower"},
	{Name: "ftl.compile_us_per_fn", Unit: "us", Better: "lower"},
	{Name: "ftl.values_after_per_fn", Unit: "count", Better: "lower"},
	{Name: "jit.compiles_per_op", Unit: "count", Better: "lower"},
	{Name: "jit.compile_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "jit.compile_share", Unit: "ratio", Better: "lower"},
	// bytecode tiers and the VM
	{Name: "interp.mops_per_s", Unit: "Mop/s", Better: "higher"},
	{Name: "interp.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "interp.self_share", Unit: "ratio", Better: "lower"},
	{Name: "vm.call_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.new_us", Unit: "us", Better: "lower"},
	// machine: host cost of simulating
	{Name: "machine.sim_minstr_per_s", Unit: "Minstr/s", Better: "higher"},
	{Name: "machine.ns_per_sim_instr", Unit: "ns", Better: "lower"},
	{Name: "machine.self_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "machine.kb_per_call", Unit: "KB", Better: "lower"},
	{Name: "jit.execute_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "jit.osr_entries_per_op", Unit: "count", Better: "lower"},
	{Name: "jit.deopts_per_op", Unit: "count", Better: "lower"},
	// machine, htm, governor: the modeled clock
	{Name: "machine.instr_per_op", Unit: "count", Better: "lower"},
	{Name: "machine.checks_per_100_instr", Unit: "count", Better: "lower"},
	{Name: "machine.tm_cycle_share", Unit: "ratio", Better: "higher"},
	{Name: "htm.squashed_cycle_share", Unit: "ratio", Better: "lower"},
	{Name: "htm.tx_per_op", Unit: "count", Better: "lower"},
	{Name: "htm.commit_share", Unit: "ratio", Better: "higher"},
	{Name: "htm.capacity_aborts_per_kop", Unit: "count", Better: "lower"},
	{Name: "htm.write_lines_per_tx", Unit: "count", Better: "lower"},
	{Name: "htm.read_lines_per_tx", Unit: "count", Better: "lower"},
	{Name: "governor.recompiles_per_kop", Unit: "count", Better: "lower"},
	// htm and cache: host cost of the models (micro-probes)
	{Name: "htm.record_write_ns", Unit: "ns", Better: "lower"},
	{Name: "htm.record_read_ns", Unit: "ns", Better: "lower"},
	{Name: "htm.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "htm.abort_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	// serving layer
	{Name: "isolate.reset_us", Unit: "us", Better: "lower"},
	{Name: "isolate.reset_allocs", Unit: "count", Better: "lower"},
	{Name: "isolate.load_us", Unit: "us", Better: "lower"},
	{Name: "isolate.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "isolate.restore_us", Unit: "us", Better: "lower"},
	{Name: "codecache.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "codecache.fill_us", Unit: "us", Better: "lower"},
	{Name: "codecache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "codecache.evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "pool.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "pool.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pool.exec_share", Unit: "ratio", Better: "higher"},
	{Name: "pool.warm_share", Unit: "ratio", Better: "higher"},
	{Name: "pool.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "pool.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "pool.coalesce_waits_per_kop", Unit: "count", Better: "lower"},
	// the benchmark process itself
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.gc_cpu_share", Unit: "ratio", Better: "lower"},
}
