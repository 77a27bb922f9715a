package nomap

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/governor"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// runSingleCall runs a workload's setup plus exactly one run() invocation
// under the given configuration and returns the result, the counters, and
// the VM (for profile inspection).
func runSingleCall(t *testing.T, src string, arch vm.Arch, maxTier profile.Tier) (string, *stats.Counters, *vm.VM) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.MaxTier = maxTier
	v := vm.New(cfg)
	jit.Attach(v)
	if _, err := v.Run(src); err != nil {
		t.Fatalf("setup: %v", err)
	}
	r, err := v.CallGlobal("run")
	if err != nil {
		t.Fatalf("run(): %v", err)
	}
	return r.ToStringValue(), v.Counters(), v
}

// profileOf finds the profile of the named function.
func profileOf(t *testing.T, v *vm.VM, name string) *profile.FunctionProfile {
	t.Helper()
	var out *profile.FunctionProfile
	v.EachProfile(func(fn *bytecode.Function, p *profile.FunctionProfile) {
		if fn.Name == name {
			out = p
		}
	})
	if out == nil {
		t.Fatalf("no profile for %q", name)
	}
	return out
}

// A single invocation of a hot loop must tier up mid-execution via OSR entry
// under NoMap — invocation counting alone can never promote it — and the
// optimized run must agree byte-for-byte with the interpreter while being at
// least 2x faster.
func TestOSREntrySingleCallHotLoop(t *testing.T) {
	w, ok := workloads.ByID("singlecall")
	if !ok {
		t.Fatal("singlecall workload not registered")
	}

	interpRes, interpCtrs, _ := runSingleCall(t, w.Source, vm.ArchBase, profile.TierInterp)
	nomapRes, nomapCtrs, _ := runSingleCall(t, w.Source, vm.ArchNoMap, profile.TierFTL)

	if nomapRes != interpRes {
		t.Fatalf("result diverged: NoMap %q vs interpreter %q", nomapRes, interpRes)
	}
	if nomapCtrs.OSREntries == 0 {
		t.Fatal("single-invocation hot loop never entered optimized code mid-run (OSREntries = 0)")
	}
	if nomapCtrs.Instr[stats.TMOpt] == 0 {
		t.Error("OSR-entered FTL code executed no transactionally-optimized instructions")
	}
	slow, fast := interpCtrs.TotalCycles(), nomapCtrs.TotalCycles()
	if fast*2 > slow {
		t.Errorf("OSR entry speedup too small: interp %d cycles, NoMap %d cycles (want >= 2x)", slow, fast)
	}

	// With tier-up capped at Baseline there is no optimized code to enter:
	// the same program must record zero OSR entries and still agree.
	baseRes, baseCtrs, _ := runSingleCall(t, w.Source, vm.ArchNoMap, profile.TierBaseline)
	if baseRes != interpRes {
		t.Fatalf("Baseline-capped result diverged: %q vs %q", baseRes, interpRes)
	}
	if n := baseCtrs.OSREntries; n != 0 {
		t.Errorf("Baseline-capped run recorded %d OSR entries, want 0", n)
	}
}

// Profile counters must be tier-transparent: a run that OSR-enters optimized
// code mid-loop has to account the same invocations and back edges as a pure
// interpreter run of the same program. A drift here means some tier transfer
// dropped or double-counted a frame's accumulated deltas.
func TestOSREntryProfileCountersMatchInterpreter(t *testing.T) {
	progs := []struct {
		name string
		src  string
	}{
		// Clean case: the loop OSR-enters FTL and commits to the end.
		{"clean", `
var CP = new Array(64);
for (var i = 0; i < 64; i++) CP[i] = i;
function run() {
  var s = 0;
  for (var i = 0; i < 30000; i++) s = s + CP[i & 63];
  return s;
}`},
		// Abort case: a type change late in the loop aborts the OSR-entered
		// transaction and recovery re-executes in Baseline.
		{"abort", `
var AP = new Array(64);
for (var i = 0; i < 64; i++) AP[i] = i;
function run() {
  var s = 0;
  for (var i = 0; i < 30000; i++) {
    if (i == 25000) AP[5] = 0.5;
    s = s + AP[i & 63];
  }
  return s;
}`},
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			interpRes, _, interpVM := runSingleCall(t, p.src, vm.ArchBase, profile.TierInterp)
			nomapRes, ctrs, nomapVM := runSingleCall(t, p.src, vm.ArchNoMap, profile.TierFTL)
			if nomapRes != interpRes {
				t.Fatalf("result diverged: %q vs %q", nomapRes, interpRes)
			}
			if ctrs.OSREntries == 0 {
				t.Fatal("program never OSR-entered; the consistency check would be vacuous")
			}
			want := profileOf(t, interpVM, "run")
			got := profileOf(t, nomapVM, "run")
			if got.InvocationCount != want.InvocationCount {
				t.Errorf("InvocationCount = %d through OSR entry, %d in interpreter", got.InvocationCount, want.InvocationCount)
			}
			if got.BackEdgeCount != want.BackEdgeCount {
				t.Errorf("BackEdgeCount = %d through OSR entry, %d in interpreter", got.BackEdgeCount, want.BackEdgeCount)
			}
		})
	}
}

// SetGovernorPolicy must return the simulated hardware and the code cache to
// their initial condition along with the governor: leaving the old policy's
// compiled code and cache warmth in place would attribute them to the new
// policy's run and skew every A/B comparison.
func TestSetGovernorPolicyResetsMachineAttribution(t *testing.T) {
	w, ok := workloads.ByID("singlecall")
	if !ok {
		t.Fatal("singlecall workload not registered")
	}
	cfg := vm.DefaultConfig()
	cfg.Arch = vm.ArchNoMap
	v := vm.New(cfg)
	b := jit.Attach(v)
	if _, err := v.Run(w.Source); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}

	m := b.Machine()
	if c := v.Counters(); c.TxBegins == 0 || c.TxCommits == 0 {
		t.Fatalf("warm run formed no transactions (begins %d, commits %d); test is vacuous", c.TxBegins, c.TxCommits)
	}
	if m.Cache.L1.Hits == 0 {
		t.Fatal("warm run left no cache state; test is vacuous")
	}
	if len(b.CompiledFunctions()) == 0 {
		t.Fatal("warm run compiled nothing; test is vacuous")
	}

	b.SetGovernorPolicy(governor.DefaultPolicy(true))

	if m.Cache.L1.Hits != 0 || m.Cache.L1.Misses != 0 || m.Cache.L2.Hits != 0 || m.Cache.L2.Misses != 0 {
		t.Error("cache hit/miss state survived policy switch")
	}
	if got := len(b.CompiledFunctions()); got != 0 {
		t.Errorf("%d compiled functions survived policy switch, want 0", got)
	}
}
