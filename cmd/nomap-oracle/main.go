// nomap-oracle runs the deterministic fault-injection oracle: it enumerates
// every injectable site of a program (speculation checks, transaction
// begin/commit/tile points, transactional write lines), re-runs the program
// forcing an abort or deopt at each one, and checks that observable behaviour
// matches the pure-interpreter reference under every architecture
// configuration swept.
//
// Usage:
//
//	nomap-oracle -workload X01,X03,X06
//	nomap-oracle -gen 50 -seed 1
//	nomap-oracle -workload S01 -arch nomap,nomap_rtm -capacity -1 -v
//	nomap-oracle -contention all -schedules 16
//
// With -contention, the schedule-sweep oracle runs instead: the named
// shared-heap workloads (T01..T04, or "all") execute under seeded thread
// interleavings with conflict and capacity aborts forced at swept shared
// accesses, and every run's final shared-heap state is diffed against the
// single-threaded reference.
//
// The exit status is nonzero if any sweep detects a divergence, a counter
// invariant violation, an ir.Verify failure, or a missed injection.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nomap/internal/machine"
	"nomap/internal/oracle"
	"nomap/internal/profile"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

func main() {
	workloadIDs := flag.String("workload", "", "comma-separated workload IDs to sweep (e.g. X01,X03)")
	gen := flag.Int("gen", 0, "number of generated programs to sweep")
	archList := flag.String("arch", "all", "comma-separated architectures, or \"all\"")
	tierName := flag.String("tier", "ftl", "maximum tier: interp|baseline|dfg|ftl")
	capacity := flag.Int("capacity", 3, "capacity-abort injection points per config (0 none, -1 every write line)")
	random := flag.Int("random", 8, "random-schedule injection trials per config")
	seed := flag.Int64("seed", 1, "seed for generated programs and random-schedule mode")
	calls := flag.Int("calls", 60, "run() invocations per observation")
	contention := flag.String("contention", "", "comma-separated contention workload IDs (T01..T04) or \"all\" to schedule-sweep")
	schedules := flag.Int("schedules", 8, "seeded thread interleavings per config in the schedule sweep")
	verbose := flag.Bool("v", false, "print per-configuration site tables")
	flag.Parse()

	cfg := oracle.Config{
		MaxTier:        mustTier(*tierName),
		CapacityPoints: *capacity,
		RandomTrials:   *random,
		Seed:           *seed,
	}
	if *archList != "all" {
		for _, name := range strings.Split(*archList, ",") {
			arch, ok := vm.ParseArch(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown architecture %q", name)
			}
			cfg.Archs = append(cfg.Archs, arch)
		}
	}

	if *contention != "" {
		os.Exit(runScheduleSweep(*contention, cfg.Archs, *schedules, *capacity, *seed, *verbose))
	}

	var programs []oracle.Program
	if *workloadIDs != "" {
		for _, id := range strings.Split(*workloadIDs, ",") {
			id = strings.TrimSpace(id)
			w, ok := workloads.ByID(id)
			if !ok {
				fatalf("unknown workload %q", id)
			}
			programs = append(programs, oracle.Program{
				Name:  fmt.Sprintf("%s (%s)", w.ID, w.Name),
				Setup: w.Source,
				Calls: *calls,
			})
		}
	}
	for i := 0; i < *gen; i++ {
		g := oracle.Generate(*seed + int64(i))
		programs = append(programs, g.Program(*calls, 3, 16))
	}
	if len(programs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: nomap-oracle -workload IDs and/or -gen N [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	failed := false
	for _, p := range programs {
		rep, err := oracle.Sweep(p, cfg)
		if err != nil {
			fatalf("%v", err)
		}
		status := "ok"
		if !rep.OK() {
			status = fmt.Sprintf("FAIL (%d)", len(rep.Failures))
			failed = true
		}
		fmt.Printf("%-28s %-9s sites=%-4d runs=%-5d injected-aborts=%d\n",
			rep.Program, status, rep.TotalSites(), rep.TotalRuns(), rep.TotalInjectedAborts())
		if *verbose {
			for _, ar := range rep.Archs {
				fmt.Printf("  %-10v sites=%-4d write-lines=%-4d runs=%-5d aborts=%-5d deopts=%d\n",
					ar.Arch, len(ar.Sites), ar.WriteLines, ar.Runs, ar.InjectedAborts, ar.InjectedDeopts)
				kinds := map[machine.SiteKind]int{}
				for _, s := range ar.Sites {
					kinds[s.Key.Kind]++
				}
				for _, kind := range []machine.SiteKind{machine.SiteCheck,
					machine.SiteTxBegin, machine.SiteTxCommit, machine.SiteTxTile} {
					if kinds[kind] > 0 {
						fmt.Printf("    %v: %d\n", kind, kinds[kind])
					}
				}
			}
		}
		for _, f := range rep.Failures {
			fmt.Printf("  %s\n", f)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runScheduleSweep drives the shared-heap schedule-sweep oracle over the
// selected contention workloads and returns the process exit code.
func runScheduleSweep(ids string, archs []vm.Arch, schedules, capacity int, seed int64, verbose bool) int {
	var wls []*machine.SharedWorkload
	if strings.EqualFold(ids, "all") {
		wls = workloads.Contention()
	} else {
		for _, id := range strings.Split(ids, ",") {
			id = strings.TrimSpace(id)
			wl, ok := workloads.ContentionByID(id)
			if !ok {
				fatalf("unknown contention workload %q", id)
			}
			wls = append(wls, wl)
		}
	}

	scfg := oracle.DefaultScheduleConfig()
	if len(archs) > 0 {
		scfg.Archs = archs
	}
	scfg.Schedules = schedules
	scfg.CapacityPoints = capacity
	scfg.Seed = seed

	code := 0
	for _, wl := range wls {
		rep, err := oracle.ScheduleSweep(wl, scfg)
		if err != nil {
			fatalf("%v", err)
		}
		status := "ok"
		if !rep.OK() {
			status = fmt.Sprintf("FAIL (%d)", len(rep.Failures))
			code = 1
		}
		var sites int
		var conflicts, fallbacks int64
		for _, ar := range rep.Archs {
			sites += ar.AccessSites
			conflicts += ar.ConflictAborts
			fallbacks += ar.FallbackAcquires
		}
		fmt.Printf("%-28s %-9s sites=%-4d runs=%-5d conflict-aborts=%-5d fallbacks=%d\n",
			wl.Name, status, sites, rep.TotalRuns(), conflicts, fallbacks)
		if verbose {
			for _, ar := range rep.Archs {
				fmt.Printf("  %-10v access-sites=%-4d capacity-sites=%-4d runs=%-4d conflict-aborts=%-5d fallbacks=%d\n",
					ar.Arch, ar.AccessSites, ar.CapacitySites, ar.Runs, ar.ConflictAborts, ar.FallbackAcquires)
			}
		}
		for _, f := range rep.Failures {
			fmt.Printf("  %s\n", f)
		}
	}
	return code
}

func mustTier(name string) profile.Tier {
	t, ok := profile.ParseTier(name)
	if !ok {
		fatalf("unknown tier %q", name)
	}
	return t
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nomap-oracle: "+format+"\n", args...)
	os.Exit(1)
}
