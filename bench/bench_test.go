package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"nomap/internal/parser"
	"nomap/internal/vm"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50},
		{0.9, 46},   // position 3.6: 40 + 0.6*(50-40)
		{0.25, 20},  // position 1.0
		{0.125, 15}, // position 0.5
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	// A key with no samples reads 0 and must not zero the row.
	if got := geomean([]float64{2, 0, 8}); !near(got, 4) {
		t.Errorf("geomean(2,0,8) = %v, want 4", got)
	}
	if got := geomean([]float64{0, 0}); got != 0 {
		t.Errorf("geomean of no positive entry = %v, want 0", got)
	}
}

func TestPerKeyGeomean(t *testing.T) {
	// Medians 2 and 50; p90s 2.8 and 90: a pooled p50 would be 3.
	perKey := [][]float64{{1, 2, 3}, {100, 50, 0}}
	if got, want := perKeyGeomean(perKey, 0.5), 10.0; !near(got, want) {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := perKeyGeomean(perKey, 0.9), math.Sqrt(2.8*90); !near(got, want) {
		t.Errorf("p90 = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	tight := func(c float64) []float64 { return []float64{c * 0.999, c, c * 1.001, c, c} }
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10.1), "within bound"},
		{"slower", lower, tight(10), tight(11), "worse"},
		{"faster", lower, tight(10), tight(9), "better"},
		{"less throughput", higher, tight(100), tight(90), "worse"},
		{"more throughput", higher, tight(100), tight(110), "better"},
		{"noisy", lower, []float64{8, 9, 10, 11, 12}, []float64{8.5, 9.5, 10.5, 11.5, 12.5}, "unresolved"},
		{"noisy but disjoint", lower, []float64{8, 9, 10, 11, 12}, []float64{4, 5, 6, 7, 7.5}, "better"},
	} {
		if got, _, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder(t0)
	r.begin("op", at(0))
	r.begin("jit.execute", at(10))
	r.leaf("ir.build", at(20), at(30))
	r.leaf("opt.gvn", at(30), at(35))
	r.end(at(70))
	r.end(at(100))
	for _, c := range []struct {
		name        string
		total, self int64
	}{{"op", 100, 40}, {"jit.execute", 60, 45}, {"ir.build", 10, 10}, {"opt.gvn", 5, 5}} {
		lt := r.layer(c.name)
		if lt.TotalNs != c.total*1e6 || lt.SelfNs != c.self*1e6 || lt.Count != 1 {
			t.Errorf("%s: total %d self %d count %d, want %d ms, %d ms, 1", c.name, lt.TotalNs, lt.SelfNs, lt.Count, c.total, c.self)
		}
	}
	if got := r.spans[2]; got.Name != "ir.build" || got.Parent != 1 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 {
		t.Errorf("parents wrong: %+v", r.spans)
	}
	other := newRecorder(t0)
	other.leaf("op", at(0), at(50))
	r.merge(other)
	if lt := r.layer("op"); lt.Count != 2 || lt.TotalNs != 150e6 {
		t.Errorf("after merge: %+v", lt)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b := genProgram(7, 48, 1), genProgram(7, 48, 1)
	if a != b {
		t.Fatal("one seed gave two texts")
	}
	if genProgram(8, 48, 1) == a {
		t.Fatal("two seeds gave one text")
	}
	// Every size holds the same shapes under every seed: that is what keeps
	// modeled cycles and host time steady across seeds.
	count := func(src, marker string) int {
		n := 0
		for i := 0; i+len(marker) <= len(src); i++ {
			if src[i:i+len(marker)] == marker {
				n++
			}
		}
		return n
	}
	for _, marker := range []string{"var A", "var O", "var p = {", "* 0.75", ">> 4"} {
		if x, y := count(a, marker), count(genProgram(8, 48, 1), marker); x != y || x == 0 {
			t.Errorf("shape %q: %d functions under seed 7, %d under seed 8", marker, x, y)
		}
	}
}

// Every generated program parses, and the tier under test agrees with the
// TierInterp reference on every call.
func TestGeneratedProgramsAgreeWithReference(t *testing.T) {
	inst := &coldInst{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{coldFuncs, 48} {
			src := genProgram(seed, n, 1+int(seed)%2)
			if _, err := parser.Parse(src); err != nil {
				t.Fatalf("seed %d, %d functions: %v", seed, n, err)
			}
			want, err := reference(src, coldCalls)
			if err != nil {
				t.Fatalf("seed %d, %d functions: %v", seed, n, err)
			}
			inst.ids = append(inst.ids, "gen")
			inst.src = append(inst.src, src)
			inst.want = append(inst.want, want)
		}
	}
	for k := range inst.src {
		for _, arch := range []vm.Arch{vm.ArchNoMap, vm.ArchBase} {
			if _, err := inst.coldOp(k, arch, nil); err != nil {
				t.Errorf("program %d under %v: %v", k, arch, err)
			}
		}
	}
}

func TestScheduleMixIsExact(t *testing.T) {
	inst := &serveInst{seed: 3, src: make([]string, 12)}
	sc := &schedule{inst: inst, client: 0, rng: newRand(3)}
	again := &schedule{inst: inst, client: 0, rng: newRand(3)}
	seen := make(map[string]bool)
	for block := 0; block < 3; block++ {
		hot := make([]int, len(inst.src))
		cold := 0
		for i := 0; i < len(inst.src)*hotPerBlock+coldPerBlock; i++ {
			r, r2 := sc.next(), again.next()
			if r.key != r2.key || r.src != r2.src {
				t.Fatal("one seed gave two schedules")
			}
			if r.key < len(inst.src) {
				hot[r.key]++
				continue
			}
			cold++
			if seen[r.src] {
				t.Fatal("a cold text was drawn twice")
			}
			seen[r.src] = true
		}
		for k, n := range hot {
			if n != hotPerBlock {
				t.Errorf("block %d: key %d drawn %d times, want %d", block, k, n, hotPerBlock)
			}
		}
		if cold != coldPerBlock {
			t.Errorf("block %d: %d cold requests, want %d", block, cold, coldPerBlock)
		}
	}
}

// readSpec loads the root BENCHMARK.json.
func readSpec(t *testing.T) (spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json repeats the tables of this package for the driver; the two
// must not drift apart.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpec(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n spec %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n spec %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in the spec, %d in the table", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: spec %+v, table {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
	}
}

// The smoke run: one second of every workload, untraced and traced, must
// pass every guard, fail no op, and emit every metric BENCHMARK.json names —
// each once, and nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up all five workloads (forty warm-up calls per kernel): about a minute")
	}
	spec := readSpec(t)
	opt := options{seed: 1, seconds: 1}
	for i := range workloadTable {
		def := &workloadTable[i]
		t.Run(def.name, func(t *testing.T) {
			rep := &report{def: def}
			if err := rep.runUntraced(opt); err != nil {
				t.Fatal(err)
			}
			if err := rep.runTraced(opt); err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Errorf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.fault)
			}
			for mode, want := range map[string][]metricDef{"0": spec.EndToEnd, "1": spec.PerLayer} {
				got := rep.result(mode).Metrics
				if len(got) != len(want) {
					t.Errorf("-trace %s: %d metrics emitted, %d named", mode, len(got), len(want))
				}
				for _, m := range want {
					mv, ok := got[m.Name]
					if !ok {
						t.Errorf("-trace %s: %s not emitted", mode, m.Name)
					} else if mv.Unit != m.Unit {
						t.Errorf("%s: unit %q, want %q", m.Name, mv.Unit, m.Unit)
					}
					if mode == "0" && !(mv.Value > 0) {
						t.Errorf("%s = %v: an end-to-end metric is never 0", m.Name, mv.Value)
					}
				}
			}
			if len(rep.keys) == 0 || rep.spans == nil || len(rep.spans.spans) == 0 {
				t.Error("no per-key rows or no spans")
			}
		})
	}
}
