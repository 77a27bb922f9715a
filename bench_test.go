package nomap

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment through the
// harness and reports the headline number as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation:
//
//	BenchmarkTable1TierSpeedup   - Table I   (tier speedups over interpreter)
//	BenchmarkFig1Shootout        - Figure 1  (cross-language Shootout model)
//	BenchmarkFig3CheckFrequency  - Figure 3  (checks per 100 FTL instructions)
//	BenchmarkDeoptFrequency      - §III-A2   (deopt rarity)
//	BenchmarkFig8SunSpiderInstr  - Figure 8  (instruction counts, 6 archs)
//	BenchmarkFig9KrakenInstr     - Figure 9
//	BenchmarkFig10SunSpiderTime  - Figure 10 (execution time, 6 archs)
//	BenchmarkFig11KrakenTime     - Figure 11
//	BenchmarkTable4TxChar        - Table IV  (transaction footprints)
//
// Absolute magnitudes are simulation-model dependent; the shapes (who wins,
// by what factor) are the reproduction targets recorded in EXPERIMENTS.md.

import (
	"strconv"
	"strings"
	"testing"

	"nomap/internal/harness"
	"nomap/internal/profile"
	"nomap/internal/stats"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// benchConfig keeps benchmark runtime moderate while staying in steady state.
func benchConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Warmup = 50
	cfg.Measure = 10
	return cfg
}

func BenchmarkTable1TierSpeedup(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := harness.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the FTL-over-interpreter AvgS speedup for SunSpider.
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(parseX(last[1]), "FTL-speedup-SunSpider-AvgS")
		b.ReportMetric(parseX(last[3]), "FTL-speedup-Kraken-AvgS")
	}
}

func BenchmarkFig1Shootout(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := harness.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mean := t.Rows[len(t.Rows)-1]
		b.ReportMetric(parseF(mean[2]), "JS-over-C")
		b.ReportMetric(parseF(mean[3]), "Python-over-C")
		b.ReportMetric(parseF(mean[5]), "Ruby-over-C")
	}
}

func BenchmarkFig3CheckFrequency(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, suite := range []string{"SunSpider", "Kraken"} {
			t, err := harness.Figure3(suite, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range t.Rows {
				if row[0] == "AvgS" {
					b.ReportMetric(parseF(row[len(row)-1]), "checks-per-100-"+suite+"-AvgS")
				}
			}
		}
	}
}

func BenchmarkDeoptFrequency(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := harness.DeoptFrequency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, row := range t.Rows {
			total += parseF(row[3])
		}
		b.ReportMetric(total/2, "deopts-per-Mcall")
	}
}

func benchArchFigure(b *testing.B, suite string, f func(string, harness.Config) (*harness.Table, error), metric string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := f(suite, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row[0] == "AvgS" && row[1] == "NoMap" {
				b.ReportMetric(100*(1-parseF(row[2])), metric)
			}
			if row[0] == "AvgS" && row[1] == "NoMap_RTM" {
				b.ReportMetric(100*(1-parseF(row[2])), metric+"-RTM")
			}
		}
	}
}

func BenchmarkFig8SunSpiderInstr(b *testing.B) {
	benchArchFigure(b, "SunSpider", harness.InstructionFigure, "instr-reduction-%")
}

func BenchmarkFig9KrakenInstr(b *testing.B) {
	benchArchFigure(b, "Kraken", harness.InstructionFigure, "instr-reduction-%")
}

func BenchmarkFig10SunSpiderTime(b *testing.B) {
	benchArchFigure(b, "SunSpider", harness.TimeFigure, "time-reduction-%")
}

func BenchmarkFig11KrakenTime(b *testing.B) {
	benchArchFigure(b, "Kraken", harness.TimeFigure, "time-reduction-%")
}

func BenchmarkTable4TxChar(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := harness.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseF(t.Rows[0][1]), "avg-write-KB-SunSpider")
		b.ReportMetric(parseF(t.Rows[1][1]), "avg-write-KB-Kraken")
	}
}

func BenchmarkAppendixTxOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := harness.AppendixValidation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the largest-transaction overhead percentage (should be
		// well under 1%).
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(parseF(strings.TrimSuffix(last[4], "%")), "tx-overhead-%-1024iter")
	}
}

// --- ablation benchmarks: design choices DESIGN.md calls out ---

// BenchmarkAblationTxLevels compares the §V-C transaction placements on a
// large-footprint imaging kernel.
func BenchmarkAblationTxLevels(b *testing.B) {
	w, _ := workloads.ByID("K06")
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, arch := range []vm.Arch{vm.ArchBase, vm.ArchNoMap, vm.ArchNoMapRTM} {
			m, err := harness.Run(w, arch, profile.TierFTL, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.Counters.TxCommits), arch.String()+"-commits")
			b.ReportMetric(float64(m.Counters.TxCapacityAborts), arch.String()+"-capacity-aborts")
		}
	}
}

// BenchmarkAblationSOF isolates the Sticky Overflow Flag: NoMap_B (bounds
// combining only) vs NoMap (adds SOF) on the overflow-check-dense S10.
func BenchmarkAblationSOF(b *testing.B) {
	w, _ := workloads.ByID("S10")
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		mB, err := harness.Run(w, vm.ArchNoMapB, profile.TierFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		mN, err := harness.Run(w, vm.ArchNoMap, profile.TierFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mB.Counters.Checks[stats.CheckOverflow]), "overflow-checks-NoMap_B")
		b.ReportMetric(float64(mN.Counters.Checks[stats.CheckOverflow]), "overflow-checks-NoMap")
		b.ReportMetric(100*(1-float64(mN.Counters.TotalInstr())/float64(mB.Counters.TotalInstr())), "SOF-instr-reduction-%")
	}
}

// BenchmarkAblationBoundsCombining isolates bounds-check combining on the
// bounds-check-dense S13 (crypto-aes), the paper's showcase for the pass.
func BenchmarkAblationBoundsCombining(b *testing.B) {
	w, _ := workloads.ByID("S13")
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		mS, err := harness.Run(w, vm.ArchNoMapS, profile.TierFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		mB, err := harness.Run(w, vm.ArchNoMapB, profile.TierFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mS.Counters.Checks[stats.CheckBounds]), "bounds-checks-NoMap_S")
		b.ReportMetric(float64(mB.Counters.Checks[stats.CheckBounds]), "bounds-checks-NoMap_B")
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (simulated
// instructions per second) for profiling the reproduction itself.
func BenchmarkEngineThroughput(b *testing.B) {
	w, _ := workloads.ByID("S10")
	cfg := benchConfig()
	var simInstr int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := harness.Run(w, vm.ArchNoMap, profile.TierFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		simInstr += m.Counters.TotalInstr()
	}
	b.ReportMetric(float64(simInstr)/b.Elapsed().Seconds(), "sim-instr/s")
}

func parseX(s string) float64 { return parseF(strings.TrimSuffix(s, "x")) }

func parseF(s string) float64 {
	f, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f
}
