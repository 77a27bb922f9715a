package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specFile is the benchmark's specification at the repository root, where
// run.sh starts the binary.
const specFile = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json that -compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// which is what the driver uses for its spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// verdict compares the runs b of a metric against the runs a.
//
//	better        b's median improved on a's by more than the bound
//	within bound  neither
//	worse         b's median is worse than a's by more than the bound
//	unresolved    the runs of one side spread wider than the bound, so the
//	              medians decide nothing — unless every run of b beats every
//	              run of a, which is still "better"
func verdict(m metricDef, a, b []float64) (string, float64, float64) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	spread := ratio(q3a-q1a, medA)
	if s := ratio(q3b-q1b, medB); s > spread {
		spread = s
	}
	worseBy := ratio(medB-medA, medA)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if spread > m.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		if (m.Better == "lower" && sb[len(sb)-1] < sa[0]) || (m.Better == "higher" && sb[0] > sa[len(sa)-1]) {
			return "better", worseBy, spread
		}
		return "unresolved", worseBy, spread
	}
	switch {
	case worseBy > m.Bound:
		return "worse", worseBy, spread
	case worseBy < -m.Bound:
		return "better", worseBy, spread
	}
	return "within bound", worseBy, spread
}

// compareFiles prints one row per (workload, end-to-end metric) and reports
// whether any row is "worse".
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(recs []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if mv, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, mv.Value)
			}
		}
		return xs
	}
	failures := func(recs []record, workload string) (failed, attempted int) {
		for _, r := range recs {
			if r.Workload == workload {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
			}
		}
		return
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-24s %5s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "runs", "median_a", "median_b", "worse_by", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(recsA, wl.Name, m.Name), values(recsB, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worseBy, spread := verdict(m, a, b)
			if m.Name == "setup_s" && v == "unresolved" {
				// Set-up runs once or a few times per run; its spread is
				// reported but only its median is held to the bound.
				v = "within bound"
				if worseBy > m.Bound {
					v = "worse"
				}
			}
			anyWorse = anyWorse || v == "worse"
			_, medA, _ := quartiles(a)
			_, medB, _ := quartiles(b)
			fmt.Fprintf(w, "%-16s %-24s %2d/%-2d %14.6g %14.6g %+8.2f%% %7.2f%% %6.2f%%  %s\n",
				wl.Name, m.Name, len(a), len(b), medA, medB, 100*worseBy, 100*spread, 100*m.Bound, v)
		}
		fa, na := failures(recsA, wl.Name)
		fb, nb := failures(recsB, wl.Name)
		if na == 0 || nb == 0 {
			continue
		}
		// fail_share may not increase at all.
		v := "within bound"
		if ratio(float64(fb), float64(nb)) > ratio(float64(fa), float64(na)) {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-16s %-24s %5s %14s %14s %9s %8s %7s  %s\n", wl.Name, "fail_share", "",
			fmt.Sprintf("%d/%d", fa, na), fmt.Sprintf("%d/%d", fb, nb), "", "", "0", v)
	}
	return anyWorse, nil
}
