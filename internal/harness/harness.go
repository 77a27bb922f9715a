// Package harness runs the paper's evaluation: steady-state measurements of
// the SunSpider and Kraken suites across the six architecture
// configurations, and the drivers that regenerate every table and figure
// (Table I, Figure 1, Figure 3, §III-A2's deoptimization counts, Figures
// 8-11, Table IV).
//
// Methodology mirrors the paper's (§VI): each benchmark's run() is invoked
// until its hot functions reach the FTL tier, the counters are reset, and a
// fixed number of steady-state invocations is measured.
package harness

import (
	"fmt"

	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// Config controls the measurement protocol.
type Config struct {
	// Warmup is the number of run() calls before counters reset.
	Warmup int
	// Measure is the number of measured steady-state run() calls.
	Measure int
	// Policy sets tier-up thresholds; the default promotes quickly so
	// simulation time is spent in steady state, not warm-up.
	Policy profile.Policy
	// Verbose callbacks (optional): invoked per measurement.
	Progress func(w workloads.Workload, arch vm.Arch)
}

// FastPolicy promotes functions up the tiers quickly so simulated runs spend
// their time in steady state rather than warm-up. Shared by the evaluation
// harness and the fault-injection oracle, whose sweeps re-run each program
// hundreds of times.
func FastPolicy() profile.Policy {
	return profile.Policy{BaselineThreshold: 2, DFGThreshold: 8, FTLThreshold: 40, MaxDeopts: 16}
}

// DefaultConfig returns the evaluation protocol used by nomap-bench.
func DefaultConfig() Config {
	return Config{
		Warmup:  60,
		Measure: 20,
		Policy:  FastPolicy(),
	}
}

// Measurement is one steady-state observation.
type Measurement struct {
	Workload workloads.Workload
	Arch     vm.Arch
	MaxTier  profile.Tier
	Counters stats.Counters
	Result   string
}

// FTLInstr returns the dynamic instructions attributable to FTL code.
func (m *Measurement) FTLInstr() int64 {
	c := &m.Counters
	return c.Instr[stats.NoTM] + c.Instr[stats.TMUnopt] + c.Instr[stats.TMOpt]
}

// Run measures one workload under one configuration.
func Run(w workloads.Workload, arch vm.Arch, maxTier profile.Tier, cfg Config) (Measurement, error) {
	v := newVM(arch, maxTier, cfg)
	if _, err := v.Run(w.Source); err != nil {
		return Measurement{}, fmt.Errorf("%s setup: %w", w.ID, err)
	}
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := v.CallGlobal("run"); err != nil {
			return Measurement{}, fmt.Errorf("%s warmup: %w", w.ID, err)
		}
	}
	v.ResetCounters()
	var result string
	measured := cfg.Measure
	if w.Iterations > 1 {
		// Workloads with very short run() bodies scale their measured reps
		// so steady-state noise stays low.
		measured *= w.Iterations
	}
	for i := 0; i < measured; i++ {
		r, err := v.CallGlobal("run")
		if err != nil {
			return Measurement{}, fmt.Errorf("%s measure: %w", w.ID, err)
		}
		result = r.ToStringValue()
	}
	if cfg.Progress != nil {
		cfg.Progress(w, arch)
	}
	return Measurement{
		Workload: w,
		Arch:     arch,
		MaxTier:  maxTier,
		Counters: *v.Counters(),
		Result:   result,
	}, nil
}

func newVM(arch vm.Arch, maxTier profile.Tier, cfg Config) *vm.VM {
	vcfg := vm.DefaultConfig()
	vcfg.Arch = arch
	vcfg.MaxTier = maxTier
	if cfg.Policy != (profile.Policy{}) {
		vcfg.Policy = cfg.Policy
	}
	v := vm.New(vcfg)
	jit.Attach(v)
	return v
}

// Matrix measures a whole suite across the six architectures at TierFTL,
// returning measurements indexed by [workload][arch]. Results are verified
// to agree across configurations — a mismatch is a correctness bug, not a
// measurement artifact, and aborts the experiment.
func Matrix(suite []workloads.Workload, cfg Config) (map[string]map[vm.Arch]Measurement, error) {
	out := make(map[string]map[vm.Arch]Measurement, len(suite))
	for _, w := range suite {
		perArch := make(map[vm.Arch]Measurement, len(vm.AllArchs))
		want := ""
		for _, arch := range vm.AllArchs {
			m, err := Run(w, arch, profile.TierFTL, cfg)
			if err != nil {
				return nil, err
			}
			if want == "" {
				want = m.Result
			} else if m.Result != want {
				return nil, fmt.Errorf("%s: result mismatch under %v: %q vs %q", w.ID, arch, m.Result, want)
			}
			perArch[arch] = m
		}
		out[w.ID] = perArch
	}
	return out, nil
}

// mean returns the arithmetic mean of xs (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
