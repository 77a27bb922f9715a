// nomap-run executes a JavaScript-subset source file (or a named built-in
// workload) under a chosen architecture configuration and tier cap, then
// reports the engine's measurements: counters, the paper's Figure 3 check
// rates (§III), and the abort-recovery governor's per-function, per-site
// state (§V-C).
//
// Three ways to run a program that defines run():
//
//	-steady     warm up and measure under the evaluation protocol (harness.Run)
//	-calls N    a fresh engine with a fast tier-up policy and a high deopt
//	            budget (so an abort storm stays visible), then N run() calls
//	-dump-ir    as -calls (80 calls unless given), then print the optimized
//	            IR of every compiled function
//
// Without any of them the program runs once; a workload also calls run().
//
// Usage:
//
//	nomap-run program.js
//	nomap-run -arch nomap -stats program.js
//	nomap-run -workload S13 -arch base -steady -stats   # Figure 3 check profile
//	nomap-run -workload A01 -arch nomap -calls 200      # abort-recovery governor
//	nomap-run -workload S18 -arch nomap -dump-ir
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nomap/internal/governor"
	"nomap/internal/harness"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

const (
	// callsMaxDeopts is -calls' whole-function deopt budget: high, so an
	// abort storm is visible rather than capped by a tier ban.
	callsMaxDeopts = 200
	// dumpIRCalls is how many run() calls -dump-ir makes when -calls is
	// not given: enough for the fast policy to reach FTL.
	dumpIRCalls = 80
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes to stdout and stderr, and
// returns the exit status (2 for a usage error, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nomap-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	archName := fs.String("arch", "base", "architecture: base|nomap_s|nomap_b|nomap|nomap_bc|nomap_rtm")
	tierName := fs.String("tier", "ftl", "maximum tier: interp|baseline|dfg|ftl")
	workloadID := fs.String("workload", "", "run a built-in workload (e.g. S18, K06) instead of a file")
	showStats := fs.Bool("stats", false, "print instruction/cycle/check/transaction statistics")
	steady := fs.Bool("steady", false, "warm up and report steady-state statistics")
	calls := fs.Int("calls", 0, "run() calls on a fresh engine with a high deopt budget; prints statistics and governor state")
	dumpIR := fs.Bool("dump-ir", false, "print the optimized IR of the compiled functions (implies -calls 80)")
	trace := fs.Bool("trace", false, "stream transaction/deopt/compile events to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "nomap-run: "+format+"\n", args...)
		return code
	}

	arch, ok := vm.ParseArch(*archName)
	if !ok {
		return fail(2, "unknown arch %q (want one of %v)", *archName, vm.AllArchs)
	}
	tier, ok := profile.ParseTier(*tierName)
	if !ok {
		return fail(2, "unknown tier %q", *tierName)
	}

	var (
		w     workloads.Workload
		label string
	)
	if *workloadID != "" {
		w, ok = workloads.ByID(*workloadID)
		if !ok {
			return fail(2, "unknown workload %q", *workloadID)
		}
		label = w.ID + " (" + w.Name + ")"
	} else {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: nomap-run [flags] program.js  (or -workload ID)")
			fs.PrintDefaults()
			return 2
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(1, "%v", err)
		}
		w = workloads.Workload{ID: fs.Arg(0), Source: string(data)}
		label = w.ID
	}

	if *steady {
		m, err := harness.Run(w, arch, tier, harness.DefaultConfig())
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "%s under %v: result=%s\n", label, arch, m.Result)
		printStats(stdout, &m.Counters, nil)
		return 0
	}

	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = tier
	if *dumpIR && *calls == 0 {
		*calls = dumpIRCalls
	}
	if *calls > 0 {
		cfg.Policy = harness.FastPolicy()
		cfg.Policy.MaxDeopts = callsMaxDeopts
	}
	v := vm.New(cfg)
	backend := jit.Attach(v)
	if *trace {
		backend.Machine().SetTracer(func(e machine.Event) {
			fmt.Fprintln(stderr, e)
		})
	}

	if *calls == 0 {
		src := w.Source
		if *workloadID != "" {
			src += "\nvar result = run();\n"
		}
		res, err := v.Run(src)
		if err != nil {
			return fail(1, "%v", err)
		}
		for _, line := range v.Output {
			fmt.Fprintln(stdout, line)
		}
		if !res.IsUndefined() {
			fmt.Fprintf(stdout, "result = %s\n", res.ToStringValue())
		}
		if *showStats {
			printStats(stdout, v.Counters(), backend.Governor())
		}
		return 0
	}

	if _, err := v.Run(w.Source); err != nil {
		return fail(1, "%s setup: %v", label, err)
	}
	var last string
	for i := 0; i < *calls; i++ {
		r, err := v.CallGlobal("run")
		if err != nil {
			return fail(1, "%s call %d: %v", label, i, err)
		}
		last = r.ToStringValue()
	}
	fmt.Fprintf(stdout, "%s under %v, %d calls: result=%s\n", label, arch, *calls, last)
	printStats(stdout, v.Counters(), backend.Governor())
	if *dumpIR {
		fmt.Fprintf(stdout, "\noptimized IR under %v:\n\n", arch)
		for _, f := range backend.CompiledFunctions() {
			fmt.Fprintln(stdout, f.String())
		}
	}
	return 0
}

// printStats writes the counters, the Figure 3 check rates (checks per 100
// dynamic FTL instructions), and — when gov holds state — the governor's
// per-function, per-site rows.
func printStats(out io.Writer, c *stats.Counters, gov *governor.Governor) {
	fmt.Fprintf(out, "instructions: total=%d NoFTL=%d NoTM=%d TMUnopt=%d TMOpt=%d\n",
		c.TotalInstr(), c.Instr[stats.NoFTL], c.Instr[stats.NoTM], c.Instr[stats.TMUnopt], c.Instr[stats.TMOpt])
	fmt.Fprintf(out, "cycles:       total=%d NonTM=%d TM=%d squashed=%d (check=%d capacity=%d sof=%d irrevocable=%d)\n",
		c.TotalCycles(), c.CyclesNonTM, c.CyclesTM, c.CyclesSquashed,
		c.CyclesSquashedBy[0], c.CyclesSquashedBy[1], c.CyclesSquashedBy[2], c.CyclesSquashedBy[3])
	fmt.Fprintf(out, "checks:       total=%d bounds=%d overflow=%d type=%d property=%d other=%d\n",
		c.TotalChecks(), c.Checks[stats.CheckBounds], c.Checks[stats.CheckOverflow],
		c.Checks[stats.CheckType], c.Checks[stats.CheckProperty], c.Checks[stats.CheckOther])
	ftlInstr := c.Instr[stats.NoTM] + c.Instr[stats.TMUnopt] + c.Instr[stats.TMOpt]
	ftl := float64(max(ftlInstr, 1))
	rate := func(n int64) float64 { return 100 * float64(n) / ftl }
	fmt.Fprintf(out, "check rate:   per 100 of %d FTL instructions: total=%.2f bounds=%.2f overflow=%.2f type=%.2f property=%.2f other=%.2f (one per %.1f)\n",
		ftlInstr, rate(c.TotalChecks()), rate(c.Checks[stats.CheckBounds]), rate(c.Checks[stats.CheckOverflow]),
		rate(c.Checks[stats.CheckType]), rate(c.Checks[stats.CheckProperty]), rate(c.Checks[stats.CheckOther]),
		ftl/float64(c.TotalChecks()+1))
	fmt.Fprintf(out, "tiers:        interpOps=%d baselineOps=%d dfgCalls=%d ftlCalls=%d deopts=%d osrExits=%d\n",
		c.InterpOps, c.BaselineOps, c.DFGCalls, c.FTLCalls, c.Deopts, c.OSRExits)
	fmt.Fprintf(out, "compiles:     baseline=%d dfg=%d ftl=%d\n",
		c.Compilations[profile.TierBaseline], c.Compilations[profile.TierDFG], c.Compilations[profile.TierFTL])
	fmt.Fprintf(out, "transactions: begins=%d commits=%d aborts=%d (check=%d capacity=%d sof=%d irrevocable=%d)\n",
		c.TxBegins, c.TxCommits, c.TxAborts, c.TxCheckAborts, c.TxCapacityAborts, c.TxSOFAborts, c.TxIrrevocableAborts)
	if c.TxCommits > 0 {
		fmt.Fprintf(out, "tx footprint: avg=%.1fKB max=%.1fKB maxAssoc=%d\n",
			float64(c.TxWriteBytesTotal)/float64(c.TxCommits)/1024,
			float64(c.TxWriteBytesMax)/1024, c.TxMaxAssoc)
	}
	if gov == nil || len(gov.Export()) == 0 {
		return
	}
	fmt.Fprintln(out, "governor:")
	for _, fr := range gov.Export() {
		flags := ""
		if fr.Probing {
			flags += " probing"
		}
		if fr.Pinned {
			flags += " pinned"
		}
		fmt.Fprintf(out, "  %-12s level=%v proven=%v failed=%d window=%d progress=%d%s\n",
			fr.Fn, fr.Level, fr.Proven, fr.Failed, fr.Window, fr.Progress, flags)
		for _, s := range fr.Sites {
			kept := ""
			if s.On {
				kept = " [SMP restored]"
			}
			fmt.Fprintf(out, "    site pc=%d class=%v aborts=%d deopts=%d%s\n",
				s.Key.PC, s.Key.Class, s.N, s.Aux, kept)
		}
	}
}
