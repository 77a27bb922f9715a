// nomap-run executes a JavaScript-subset source file (or a named built-in
// workload) under a chosen architecture configuration and tier cap, then
// reports the engine's measurements.
//
// Usage:
//
//	nomap-run program.js
//	nomap-run -arch nomap -stats program.js
//	nomap-run -workload S18 -arch base -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"nomap/internal/harness"
	"nomap/internal/jit"
	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func main() {
	archName := flag.String("arch", "base", "architecture: base|nomap_s|nomap_b|nomap|nomap_bc|nomap_rtm")
	tierName := flag.String("tier", "ftl", "maximum tier: interp|baseline|dfg|ftl")
	workloadID := flag.String("workload", "", "run a built-in workload (e.g. S18, K06) instead of a file")
	showStats := flag.Bool("stats", false, "print instruction/cycle/check/transaction statistics")
	steady := flag.Bool("steady", false, "with -workload: warm up and report steady-state statistics")
	trace := flag.Bool("trace", false, "stream transaction/deopt/compile events to stderr")
	flag.Parse()

	arch, ok := vm.ParseArch(*archName)
	if !ok {
		fatalf("unknown architecture %q", *archName)
	}
	tier, ok := profile.ParseTier(*tierName)
	if !ok {
		fatalf("unknown tier %q", *tierName)
	}

	var src string
	if *workloadID != "" {
		w, ok := workloads.ByID(*workloadID)
		if !ok {
			fatalf("unknown workload %q", *workloadID)
		}
		if *steady {
			m, err := harness.Run(w, arch, tier, harness.DefaultConfig())
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%s (%s) under %v: result=%s\n", w.ID, w.Name, arch, m.Result)
			printStats(&m.Counters)
			return
		}
		src = w.Source + "\nvar result = run();\n"
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: nomap-run [flags] program.js  (or -workload ID)")
			flag.PrintDefaults()
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		src = string(data)
	}

	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = tier
	v := vm.New(cfg)
	backend := jit.Attach(v)
	if *trace {
		backend.Machine().SetTracer(func(e machine.Event) {
			fmt.Fprintln(os.Stderr, e)
		})
	}

	res, err := v.Run(src)
	if err != nil {
		fatalf("%v", err)
	}
	for _, line := range v.Output {
		fmt.Println(line)
	}
	if !res.IsUndefined() {
		fmt.Printf("result = %s\n", res.ToStringValue())
	}
	if *showStats {
		printStats(v.Counters())
	}
}

func printStats(c *stats.Counters) {
	fmt.Printf("instructions: total=%d NoFTL=%d NoTM=%d TMUnopt=%d TMOpt=%d\n",
		c.TotalInstr(), c.Instr[stats.NoFTL], c.Instr[stats.NoTM], c.Instr[stats.TMUnopt], c.Instr[stats.TMOpt])
	fmt.Printf("cycles:       total=%d NonTM=%d TM=%d\n", c.TotalCycles(), c.CyclesNonTM, c.CyclesTM)
	fmt.Printf("checks:       total=%d bounds=%d overflow=%d type=%d property=%d other=%d\n",
		c.TotalChecks(), c.Checks[stats.CheckBounds], c.Checks[stats.CheckOverflow],
		c.Checks[stats.CheckType], c.Checks[stats.CheckProperty], c.Checks[stats.CheckOther])
	fmt.Printf("tiers:        interpOps=%d baselineOps=%d dfgCalls=%d ftlCalls=%d deopts=%d\n",
		c.InterpOps, c.BaselineOps, c.DFGCalls, c.FTLCalls, c.Deopts)
	fmt.Printf("transactions: begins=%d commits=%d aborts=%d (check=%d capacity=%d sof=%d)\n",
		c.TxBegins, c.TxCommits, c.TxAborts, c.TxCheckAborts, c.TxCapacityAborts, c.TxSOFAborts)
	if c.TxCommits > 0 {
		fmt.Printf("tx footprint: avg=%.1fKB max=%.1fKB maxAssoc=%d\n",
			float64(c.TxWriteBytesTotal)/float64(c.TxCommits)/1024,
			float64(c.TxWriteBytesMax)/1024, c.TxMaxAssoc)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nomap-run: "+format+"\n", args...)
	os.Exit(1)
}
