package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nomap/internal/harness"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// runCLI runs the command and returns its exit status and outputs.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustContain fails for every want missing from out, in order: each must
// appear after the previous one.
func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	rest := out
	for _, w := range wants {
		i := strings.Index(rest, w)
		if i < 0 {
			t.Fatalf("output lacks %q (after the previous expectations):\n%s", w, out)
		}
		rest = rest[i+len(w):]
	}
}

// A01's combined bounds check storms; the governor restores that one SMP
// after four check aborts, and FTL compiles five times in all.
func TestCallsAbortStormRestoresSMP(t *testing.T) {
	code, out, errOut := runCLI(t, "-workload", "A01", "-arch", "nomap", "-calls", "120")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	mustContain(t, out,
		"A01 (abort-storm) under NoMap, 120 calls: result=0",
		"squashed=196 (check=196 ",
		"compiles:     baseline=0 dfg=1 ftl=5",
		"aborts=4 (check=4 capacity=0 sof=0 irrevocable=0)",
		"governor:",
		"run          level=loop-nest",
		"site pc=17 class=Bounds aborts=4 deopts=0 [SMP restored]")
}

// A04's print() aborts irrevocably once; the function is pinned off.
func TestCallsIrrevocablePinsOff(t *testing.T) {
	code, out, errOut := runCLI(t, "-workload", "A04", "-arch", "NoMap_RTM", "-calls", "120")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	mustContain(t, out,
		"deopts=0 ",
		"aborts=1 (check=0 capacity=0 sof=0 irrevocable=1)",
		"run          level=off proven=off",
		" pinned\n")
}

// -steady -stats prints the check counts harness.Run measures, per class,
// and the Figure 3 rates per 100 FTL instructions.
func TestSteadyStatsMatchHarness(t *testing.T) {
	w, _ := workloads.ByID("S13")
	m, err := harness.Run(w, vm.ArchBase, profile.TierFTL, harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "-workload", "S13", "-arch", "base", "-steady", "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	c := &m.Counters
	ftl := float64(m.FTLInstr())
	mustContain(t, out,
		fmt.Sprintf("S13 (crypto-aes) under Base: result=%s", m.Result),
		fmt.Sprintf("checks:       total=%d bounds=%d overflow=%d type=%d property=%d other=%d",
			c.TotalChecks(), c.Checks[stats.CheckBounds], c.Checks[stats.CheckOverflow],
			c.Checks[stats.CheckType], c.Checks[stats.CheckProperty], c.Checks[stats.CheckOther]),
		fmt.Sprintf("per 100 of %d FTL instructions: total=%.2f bounds=%.2f ",
			m.FTLInstr(), 100*float64(c.TotalChecks())/ftl, 100*float64(c.Checks[stats.CheckBounds])/ftl))
}

// A source file stands in for -workload in every mode.
func TestFileModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sum.js")
	src := "function run() { var s = 0; for (var i = 0; i < 50; i++) { s += i; } return s; }\nvar result = run();\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{path}, "result = 1225"},
		{[]string{"-calls", "3", path}, path + " under Base, 3 calls: result=1225"},
		{[]string{"-steady", "-arch", "nomap", path}, path + " under NoMap: result=1225"},
	} {
		code, out, errOut := runCLI(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, errOut)
		}
		mustContain(t, out, tc.want)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "Z99"},
		{"-workload", "S13", "-arch", "nomap_xx"},
		{"-workload", "S13", "-tier", "jit"},
		{"-no-such-flag"},
		{},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if _, _, errOut := runCLI(t, "-arch", "x", "-workload", "S13"); !strings.Contains(errOut, "NoMap_RTM") {
		t.Errorf("unknown arch does not list the valid ones: %q", errOut)
	}
}
