// nomap-governor inspects the abort-recovery governor: it runs one workload
// under one architecture configuration, then prints the transaction and
// wasted-work counters next to the governor's per-function, per-site state.
// The adversarial workloads (A01..A04) each exercise one arm of the policy.
//
// Usage:
//
//	nomap-governor -workload A01                 # abort storm, NoMap config
//	nomap-governor -workload A03 -arch NoMap_RTM -calls 300
//	nomap-governor -workload A01 -max-squashed 40000   # CI ceiling (exit 1)
package main

import (
	"flag"
	"fmt"
	"os"

	"nomap/internal/harness"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func main() {
	workload := flag.String("workload", "A01", "workload ID (A01..A04, S01.., K01..)")
	archName := flag.String("arch", "NoMap", "architecture configuration")
	calls := flag.Int("calls", 200, "number of run() calls")
	maxDeopts := flag.Int64("max-deopts", 200, "whole-function deopt budget (high so a storm is visible, not capped by a tier ban)")
	maxSquashed := flag.Int64("max-squashed", -1, "exit 1 if CyclesSquashed exceeds this ceiling (-1 disables)")
	flag.Parse()

	arch, ok := vm.ParseArch(*archName)
	if !ok {
		fmt.Fprintf(os.Stderr, "nomap-governor: unknown arch %q (want one of %v)\n", *archName, vm.AllArchs)
		os.Exit(2)
	}
	w, ok := workloads.ByID(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "nomap-governor: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = profile.TierFTL
	cfg.Policy = harness.FastPolicy()
	cfg.Policy.MaxDeopts = *maxDeopts
	v := vm.New(cfg)
	b := jit.Attach(v)

	if _, err := v.Run(w.Source); err != nil {
		fmt.Fprintf(os.Stderr, "nomap-governor: %s setup: %v\n", w.ID, err)
		os.Exit(1)
	}
	var last string
	for i := 0; i < *calls; i++ {
		r, err := v.CallGlobal("run")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomap-governor: %s call %d: %v\n", w.ID, i, err)
			os.Exit(1)
		}
		last = r.ToStringValue()
	}

	c := v.Counters()
	fmt.Printf("%s (%s) under %v, %d calls\n", w.ID, w.Name, arch, *calls)
	fmt.Printf("  result            %s\n", last)
	fmt.Printf("  FTL calls         %d (compiles: baseline=%d dfg=%d ftl=%d)\n",
		c.FTLCalls, c.Compilations[profile.TierBaseline], c.Compilations[profile.TierDFG], c.Compilations[profile.TierFTL])
	fmt.Printf("  deopts / OSR      %d / %d\n", c.Deopts, c.OSRExits)
	fmt.Printf("  tx begin/commit   %d / %d\n", c.TxBegins, c.TxCommits)
	fmt.Printf("  tx aborts         %d  (check=%d capacity=%d sof=%d irrevocable=%d)\n",
		c.TxAborts, c.TxCheckAborts, c.TxCapacityAborts, c.TxSOFAborts, c.TxIrrevocableAborts)
	fmt.Printf("  cycles squashed   %d  (check=%d capacity=%d sof=%d irrevocable=%d) of %d TM cycles\n",
		c.CyclesSquashed, c.CyclesSquashedBy[0], c.CyclesSquashedBy[1], c.CyclesSquashedBy[2], c.CyclesSquashedBy[3], c.CyclesTM)

	fmt.Println("  governor state:")
	for _, fr := range b.Governor().Export() {
		flags := ""
		if fr.Probing {
			flags += " probing"
		}
		if fr.Pinned {
			flags += " pinned"
		}
		fmt.Printf("    %-12s level=%v proven=%v failed=%d window=%d progress=%d%s\n",
			fr.Fn, fr.Level, fr.Proven, fr.Failed, fr.Window, fr.Progress, flags)
		for _, s := range fr.Sites {
			kept := ""
			if s.On {
				kept = " [SMP restored]"
			}
			fmt.Printf("      site pc=%d class=%v aborts=%d deopts=%d%s\n",
				s.Key.PC, s.Key.Class, s.N, s.Aux, kept)
		}
	}

	if *maxSquashed >= 0 && c.CyclesSquashed > *maxSquashed {
		fmt.Fprintf(os.Stderr, "nomap-governor: CyclesSquashed %d exceeds ceiling %d\n", c.CyclesSquashed, *maxSquashed)
		os.Exit(1)
	}
}
