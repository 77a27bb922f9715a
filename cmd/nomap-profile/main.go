// nomap-profile characterizes the SMP-guarding checks in FTL code (the
// paper's §III analysis): it warms a workload or source file to steady
// state under the Base configuration and reports checks per 100 dynamic FTL
// instructions by class, optionally dumping the optimized IR of the hot
// functions under each architecture so the transformation is visible.
//
// Usage:
//
//	nomap-profile -workload S18
//	nomap-profile -workload S13 -dump-ir -arch nomap
//	nomap-profile program.js
package main

import (
	"flag"
	"fmt"
	"os"

	"nomap/internal/harness"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func main() {
	workloadID := flag.String("workload", "", "built-in workload ID (e.g. S18)")
	dumpIR := flag.Bool("dump-ir", false, "dump the optimized IR of hot functions")
	archName := flag.String("arch", "base", "architecture for -dump-ir: base|nomap_s|nomap_b|nomap|nomap_bc|nomap_rtm")
	flag.Parse()

	arch, ok := vm.ParseArch(*archName)
	if !ok {
		fmt.Fprintf(os.Stderr, "nomap-profile: unknown arch %q (want one of %v)\n", *archName, vm.AllArchs)
		os.Exit(2)
	}

	var src string
	var label string
	if *workloadID != "" {
		w, ok := workloads.ByID(*workloadID)
		if !ok {
			fmt.Fprintf(os.Stderr, "nomap-profile: unknown workload %q\n", *workloadID)
			os.Exit(1)
		}
		src, label = w.Source, w.ID+" "+w.Name
	} else if flag.NArg() == 1 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomap-profile: %v\n", err)
			os.Exit(1)
		}
		src, label = string(data), flag.Arg(0)
	} else {
		fmt.Fprintln(os.Stderr, "usage: nomap-profile [-dump-ir] [-arch X] (-workload ID | program.js)")
		os.Exit(2)
	}

	// Steady-state check profile under Base (Figure 3 methodology).
	w := workloads.Workload{ID: "custom", Name: label, Source: src}
	m, err := harness.Run(w, vm.ArchBase, profile.TierFTL, harness.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "nomap-profile: %v\n", err)
		os.Exit(1)
	}
	ftl := float64(m.FTLInstr())
	if ftl == 0 {
		ftl = 1
	}
	c := m.Counters
	fmt.Printf("%s: steady-state FTL check profile (Base)\n", label)
	fmt.Printf("  FTL instructions: %d (of %d total)\n", m.FTLInstr(), c.TotalInstr())
	for _, cl := range []stats.CheckClass{stats.CheckBounds, stats.CheckOverflow, stats.CheckType, stats.CheckProperty, stats.CheckOther} {
		fmt.Printf("  %-9s %8d checks  %6.2f per 100 FTL instructions\n",
			cl.String()+":", c.Checks[cl], 100*float64(c.Checks[cl])/ftl)
	}
	fmt.Printf("  %-9s %8d checks  %6.2f per 100 FTL instructions (one per %.1f)\n",
		"total:", c.TotalChecks(), 100*float64(c.TotalChecks())/ftl, ftl/float64(c.TotalChecks()+1))

	if *dumpIR {
		cfg := vm.DefaultConfig()
		cfg.Arch = arch
		cfg.Policy = harness.FastPolicy()
		v := vm.New(cfg)
		backend := jit.Attach(v)
		if _, err := v.Run(src); err != nil {
			fmt.Fprintf(os.Stderr, "nomap-profile: %v\n", err)
			os.Exit(1)
		}
		for i := 0; i < 80; i++ {
			if _, err := v.CallGlobal("run"); err != nil {
				fmt.Fprintf(os.Stderr, "nomap-profile: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\noptimized IR under %v:\n\n", arch)
		for _, f := range backend.CompiledFunctions() {
			fmt.Println(f.String())
		}
	}
}
