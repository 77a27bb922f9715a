package harness

import (
	"fmt"

	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// Table1 reproduces the paper's Table I: steady-state speedup of each
// compiler tier over the Interpreter, for SunSpider and Kraken, reported as
// AvgS and AvgT.
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Table I: Speedup of JavaScriptCore tiers over interpreter",
		Columns: []string{"Highest Tier", "SunSpider AvgS", "SunSpider AvgT", "Kraken AvgS", "Kraken AvgT"},
	}
	suites := [][]workloads.Workload{workloads.SunSpider(), workloads.Kraken()}
	// interpCycles[suite][workloadID]
	interpCycles := make([]map[string]float64, 2)
	for si, suite := range suites {
		interpCycles[si] = map[string]float64{}
		for _, w := range suite {
			m, err := Run(w, vm.ArchBase, profile.TierInterp, cfg)
			if err != nil {
				return nil, err
			}
			interpCycles[si][w.ID] = float64(m.Counters.TotalCycles())
		}
	}
	for _, tier := range []profile.Tier{profile.TierBaseline, profile.TierDFG, profile.TierFTL} {
		cells := []any{tier.String()}
		for si, suite := range suites {
			var avgS, avgT []float64
			for _, w := range suite {
				m, err := Run(w, vm.ArchBase, tier, cfg)
				if err != nil {
					return nil, err
				}
				sp := interpCycles[si][w.ID] / float64(m.Counters.TotalCycles())
				avgT = append(avgT, sp)
				if w.InAvgS {
					avgS = append(avgS, sp)
				}
			}
			cells = append(cells, fmt.Sprintf("%.2fx", mean(avgS)), fmt.Sprintf("%.2fx", mean(avgT)))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Language cost models for Figure 1 (see the DESIGN.md substitution table).
// The paper measures real C/Python/PHP/Ruby implementations; our substrate
// executes only the JS engine, so the other languages are modelled from the
// engine's own tiers: C as check-free fully optimized code without the
// managed-runtime tax, and the other scripting JITs as capped-tier runs
// scaled by factors calibrated to the paper's reported means (3.1x, 10.6x,
// 31.4x, 47.7x for JS, Python, PHP, Ruby over C).
const (
	fig1CFactor      = 0.45 // native code: untagged values, no GC barriers
	fig1PythonFactor = 2.25 // PyPy: tracing JIT, heavier boxing than JSC DFG
	fig1PHPFactor    = 6.6  // HHVM: method JIT, hash-table-backed objects
	fig1RubyFactor   = 10.1 // JRuby: JVM-hosted, megamorphic dispatch
)

// Figure1 reproduces Figure 1: Shootout execution time normalized to C.
func Figure1(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 1: Shootout execution time normalized to C (log-scale data)",
		Columns: []string{"Benchmark", "C", "JavaScript", "Python", "PHP", "Ruby"},
		Notes: []string{
			"C/Python/PHP/Ruby are modelled from engine tiers (see DESIGN.md): " +
				"C = check-free FTL x0.45, Python = DFG-capped x2.25, PHP = DFG x6.6, Ruby = DFG x10.1 " +
				"(factors calibrated to the paper's reported means of 3.1x/10.6x/31.4x/47.7x over C)",
		},
	}
	var js, py, php, rb []float64
	for _, w := range workloads.Shootout() {
		mBase, err := Run(w, vm.ArchBase, profile.TierFTL, cfg)
		if err != nil {
			return nil, err
		}
		mBC, err := Run(w, vm.ArchNoMapBC, profile.TierFTL, cfg)
		if err != nil {
			return nil, err
		}
		mDFG, err := Run(w, vm.ArchBase, profile.TierDFG, cfg)
		if err != nil {
			return nil, err
		}
		c := float64(mBC.Counters.TotalCycles()) * fig1CFactor
		jsT := float64(mBase.Counters.TotalCycles()) / c
		pyT := float64(mDFG.Counters.TotalCycles()) * fig1PythonFactor / c
		phpT := float64(mDFG.Counters.TotalCycles()) * fig1PHPFactor / c
		rbT := float64(mDFG.Counters.TotalCycles()) * fig1RubyFactor / c
		js = append(js, jsT)
		py = append(py, pyT)
		php = append(php, phpT)
		rb = append(rb, rbT)
		t.AddRow(w.Name, "1.00", jsT, pyT, phpT, rbT)
	}
	t.AddRow("mean", "1.00", mean(js), mean(py), mean(php), mean(rb))
	return t, nil
}

// Figure3 reproduces Figure 3: SMP-guarding checks per 100 dynamic
// instructions in FTL code under the Base configuration, broken down by
// class, for the given suite ("SunSpider" or "Kraken").
func Figure3(suite string, cfg Config) (*Table, error) {
	ws := suiteByName(suite)
	t := &Table{
		Title:   fmt.Sprintf("Figure 3: SMP-guarding checks per 100 FTL instructions (%s)", suite),
		Columns: []string{"Benchmark", "Bounds", "Overflow", "Type", "Property", "Other", "Total"},
	}
	classes := []stats.CheckClass{stats.CheckBounds, stats.CheckOverflow, stats.CheckType, stats.CheckProperty, stats.CheckOther}
	perClassS := make([][]float64, len(classes))
	perClassT := make([][]float64, len(classes))
	addAvg := func(label string, per [][]float64) {
		cells := []any{label}
		total := 0.0
		for i := range classes {
			m := mean(per[i])
			total += m
			cells = append(cells, fmt.Sprintf("%.1f", m))
		}
		cells = append(cells, fmt.Sprintf("%.1f", total))
		t.AddRow(cells...)
	}
	for _, w := range ws {
		m, err := Run(w, vm.ArchBase, profile.TierFTL, cfg)
		if err != nil {
			return nil, err
		}
		ftl := float64(m.FTLInstr())
		if ftl == 0 {
			ftl = 1
		}
		cells := []any{w.ID + " " + w.Name}
		total := 0.0
		for i, cl := range classes {
			v := 100 * float64(m.Counters.Checks[cl]) / ftl
			total += v
			perClassT[i] = append(perClassT[i], v)
			if w.InAvgS {
				perClassS[i] = append(perClassS[i], v)
			}
			cells = append(cells, fmt.Sprintf("%.1f", v))
		}
		cells = append(cells, fmt.Sprintf("%.1f", total))
		if w.InAvgS {
			t.AddRow(cells...)
		}
	}
	addAvg("AvgS", perClassS)
	addAvg("AvgT", perClassT)
	return t, nil
}

// DeoptFrequency reproduces §III-A2: how rarely deoptimization SMPs are
// invoked once code is hot. It reports FTL function calls and deopts during
// steady state across the AvgS benchmarks.
func DeoptFrequency(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "§III-A2: Frequency of invoking deoptimization SMPs (steady state, Base)",
		Columns: []string{"Suite", "FTL calls", "Deopts", "Deopts/Mcall"},
	}
	for _, suite := range []string{"SunSpider", "Kraken"} {
		var calls, deopts int64
		for _, w := range workloads.AvgS(suiteByName(suite)) {
			m, err := Run(w, vm.ArchBase, profile.TierFTL, cfg)
			if err != nil {
				return nil, err
			}
			calls += m.Counters.FTLCalls
			deopts += m.Counters.Deopts
		}
		rate := 0.0
		if calls > 0 {
			rate = 1e6 * float64(deopts) / float64(calls)
		}
		t.AddRow(suite, calls, deopts, fmt.Sprintf("%.2f", rate))
	}
	t.Notes = append(t.Notes, "paper: <50 deoptimizations in ~85M FTL calls; after ~50 iterations checks practically never fail")
	return t, nil
}

// InstructionFigure reproduces Figure 8 (SunSpider) or Figure 9 (Kraken):
// dynamic instruction count for the six configurations, normalized to Base,
// broken into NoFTL / NoTM / TMUnopt / TMOpt.
func InstructionFigure(suite string, cfg Config) (*Table, error) {
	return archFigure(suite, cfg, "instructions",
		func(m Measurement) [4]float64 {
			c := m.Counters
			return [4]float64{
				float64(c.Instr[stats.NoFTL]),
				float64(c.Instr[stats.NoTM]),
				float64(c.Instr[stats.TMUnopt]),
				float64(c.Instr[stats.TMOpt]),
			}
		},
		[]string{"NoFTL", "NoTM", "TMUnopt", "TMOpt"})
}

// TimeFigure reproduces Figure 10 (SunSpider) or Figure 11 (Kraken):
// execution time for the six configurations, normalized to Base, split into
// NonTMTime / TMTime.
func TimeFigure(suite string, cfg Config) (*Table, error) {
	return archFigure(suite, cfg, "cycles",
		func(m Measurement) [4]float64 {
			c := m.Counters
			return [4]float64{float64(c.CyclesNonTM), float64(c.CyclesTM), 0, 0}
		},
		[]string{"NonTMTime", "TMTime", "", ""})
}

// archFigure runs the full (workload x arch) matrix for a suite and renders
// the normalized breakdown plus AvgS and AvgT rows.
func archFigure(suite string, cfg Config, what string, split func(Measurement) [4]float64, parts []string) (*Table, error) {
	ws := suiteByName(suite)
	figNo := map[string]map[string]string{
		"instructions": {"SunSpider": "Figure 8", "Kraken": "Figure 9"},
		"cycles":       {"SunSpider": "Figure 10", "Kraken": "Figure 11"},
	}[what][suite]
	t := &Table{
		Title:   fmt.Sprintf("%s: normalized %s, %s", figNo, what, suite),
		Columns: []string{"Benchmark", "Arch", "Total"},
	}
	for _, p := range parts {
		if p != "" {
			t.Columns = append(t.Columns, p)
		}
	}
	matrix, err := Matrix(ws, cfg)
	if err != nil {
		return nil, err
	}
	// avg[arch] collects normalized totals for AvgS/AvgT.
	avgS := map[vm.Arch][]float64{}
	avgT := map[vm.Arch][]float64{}
	for _, w := range ws {
		base := matrix[w.ID][vm.ArchBase]
		baseParts := split(base)
		baseTotal := baseParts[0] + baseParts[1] + baseParts[2] + baseParts[3]
		if baseTotal == 0 {
			baseTotal = 1
		}
		for _, arch := range vm.AllArchs {
			m := matrix[w.ID][arch]
			pr := split(m)
			total := (pr[0] + pr[1] + pr[2] + pr[3]) / baseTotal
			avgT[arch] = append(avgT[arch], total)
			if w.InAvgS {
				avgS[arch] = append(avgS[arch], total)
			}
			if w.InAvgS {
				cells := []any{w.ID + " " + w.Name, arch.String(), total}
				for i, p := range parts {
					if p != "" {
						cells = append(cells, pr[i]/baseTotal)
					}
				}
				t.AddRow(cells...)
			}
		}
	}
	for _, arch := range vm.AllArchs {
		t.AddRow("AvgS", arch.String(), mean(avgS[arch]))
	}
	for _, arch := range vm.AllArchs {
		t.AddRow("AvgT", arch.String(), mean(avgT[arch]))
	}
	return t, nil
}

// Table4 reproduces Table IV: transaction write footprints and set
// associativity pressure under the NoMap configuration, extended with the
// governor's abort-cause and wasted-work breakdown (squashed cycles are the
// in-transaction cycles discarded by rollbacks — Figure 11's analysis).
func Table4(cfg Config) (*Table, error) {
	t := &Table{
		Title: "Table IV: Transaction characterization (NoMap, lightweight HTM)",
		Columns: []string{"Suite", "Avg write KB", "Max write KB", "Max set assoc",
			"Commits", "Aborts", "Chk/Cap/SOF/Irr", "Squashed cyc"},
	}
	for _, suite := range []string{"SunSpider", "Kraken"} {
		var avg []float64
		var maxKB, maxAssoc, commits, aborts, squashed int64
		var byCause [stats.NumAbortCauses]int64
		for _, w := range workloads.AvgS(suiteByName(suite)) {
			m, err := Run(w, vm.ArchNoMap, profile.TierFTL, cfg)
			if err != nil {
				return nil, err
			}
			c := m.Counters
			if c.TxCommits > 0 {
				avg = append(avg, float64(c.TxWriteBytesTotal)/float64(c.TxCommits)/1024)
			}
			if c.TxWriteBytesMax > maxKB {
				maxKB = c.TxWriteBytesMax
			}
			if c.TxMaxAssoc > maxAssoc {
				maxAssoc = c.TxMaxAssoc
			}
			commits += c.TxCommits
			aborts += c.TxAborts
			squashed += c.CyclesSquashed
			byCause[0] += c.TxCheckAborts
			byCause[1] += c.TxCapacityAborts
			byCause[2] += c.TxSOFAborts
			byCause[3] += c.TxIrrevocableAborts
		}
		t.AddRow(suite, fmt.Sprintf("%.1f", mean(avg)), fmt.Sprintf("%.1f", float64(maxKB)/1024),
			maxAssoc, commits, aborts,
			fmt.Sprintf("%d/%d/%d/%d", byCause[0], byCause[1], byCause[2], byCause[3]), squashed)
	}
	t.Notes = append(t.Notes, "paper: average write footprint 44.9KB (SunSpider) and 47.4KB (Kraken), fitting amply in the 256KB L2")
	return t, nil
}

// RecoveryTable characterizes the abort-recovery governor on the adversarial
// workloads (A01..A04): steady-state aborts by cause, recompilations and the
// squashed cycles it wastes. The phase transitions (A01's storm onset, A03's
// footprint shrink) happen during warm-up, so the measured window shows the
// converged behaviour. EXPERIMENTS.md keeps the rows of the paper's one-way
// §V-C policy this table used to print beside them.
func RecoveryTable(cfg Config) (*Table, error) {
	t := &Table{
		Title: "Abort recovery governor on the adversarial workloads (NoMap, steady state)",
		Columns: []string{"Workload", "FTL compiles", "Commits",
			"Aborts", "Chk/Cap/SOF/Irr", "Squashed cyc", "OSR deopts"},
	}
	for _, w := range workloads.Adversarial() {
		m, err := Run(w, vm.ArchNoMap, profile.TierFTL, cfg)
		if err != nil {
			return nil, err
		}
		c := m.Counters
		t.AddRow(w.ID+" "+w.Name, c.Compilations[profile.TierFTL], c.TxCommits,
			c.TxAborts,
			fmt.Sprintf("%d/%d/%d/%d", c.TxCheckAborts, c.TxCapacityAborts, c.TxSOFAborts, c.TxIrrevocableAborts),
			c.CyclesSquashed, c.Deopts)
	}
	t.Notes = append(t.Notes,
		"A01: surgical SMP restoration silences the combined-check storm at full tx level",
		"A03: probationary re-promotion recovers loop-nest after the footprint shrinks",
		"A04: irrevocable aborts pin TxOff but keep the FTL tier and charge no budget")
	return t, nil
}

// AppendixValidation reproduces the appendix experiment (§VI-A3): the paper
// validates that its emulated lightweight HTM does not underestimate real
// ROT overheads by running small transactional programs. Here the analogue
// sweeps the transactional region size and reports the per-transaction
// overhead (begin fence + commit flash-clear) as a fraction of execution
// time — it must amortize to noise for loop-sized transactions, which is
// the property that makes NoMap's always-on transactions affordable.
func AppendixValidation(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Appendix: lightweight HTM overhead vs. transaction size",
		Columns: []string{"Loop iterations", "Cycles/call", "Tx/call", "Overhead cycles/call", "Overhead %"},
	}
	for _, iters := range []int{4, 16, 64, 256, 1024} {
		src := fmt.Sprintf(`
var data = new Array(%d);
for (var i = 0; i < %d; i++) data[i] = i;
function run() {
  var s = 0;
  for (var i = 0; i < %d; i++) s += data[i];
  return s;
}`, iters, iters, iters)
		w := workloads.Workload{ID: fmt.Sprintf("txsize-%d", iters), Name: "appendix", Source: src}
		m, err := Run(w, vm.ArchNoMapS, profile.TierFTL, cfg)
		if err != nil {
			return nil, err
		}
		c := m.Counters
		calls := float64(cfg.Measure)
		// Overhead per outermost transaction: the modeled XBegin fence and
		// XEnd flash-clear.
		perTx := float64(30 + 5)
		overhead := perTx * float64(c.TxBegins)
		total := float64(c.TotalCycles())
		t.AddRow(
			iters,
			fmt.Sprintf("%.0f", total/calls),
			fmt.Sprintf("%.1f", float64(c.TxBegins)/calls),
			fmt.Sprintf("%.1f", overhead/calls),
			fmt.Sprintf("%.2f%%", 100*overhead/total),
		)
	}
	t.Notes = append(t.Notes,
		"paper appendix: the emulated platform does not underestimate POWER8 ROT overhead; "+
			"here the fixed ~35-cycle begin+commit cost amortizes below 1% for realistic loop sizes")
	return t, nil
}

func suiteByName(name string) []workloads.Workload {
	if name == "Kraken" {
		return workloads.Kraken()
	}
	return workloads.SunSpider()
}
