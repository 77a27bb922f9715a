// Command bench is the repository's benchmark: five workloads that drive the
// same engine layers in different ways, measured on both clocks — modeled
// cycles (the paper's) and host time (the library user's) — with every layer
// timed from outside the engine. README.md in this directory defines the
// metrics and says why each workload exists.
//
//	bash bench/run.sh                                   # all workloads, untraced then traced
//	bash bench/run.sh -workload cold_wide -seed 2 -seconds 12 -trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl          # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// header records what a set of numbers was measured on.
type header struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
	Commit     string  `json:"commit"`
}

// commit is the VCS revision the go command stamped into the binary, when
// it was built inside a repository.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// keyRow is one key's row under a workload.
type keyRow struct {
	Key         string  `json:"key"`
	Ops         int     `json:"ops"`
	P50Ms       float64 `json:"op_ms_p50"`
	P90Ms       float64 `json:"op_ms_p90"`
	CyclesPerOp float64 `json:"modeled_cycles_per_op"`
	Speedup     float64 `json:"modeled_speedup_vs_base"`
}

// record is one workload's run as -out appends it and -compare reads it.
type record struct {
	Header   header   `json:"header"`
	Workload string   `json:"workload"`
	Result   result   `json:"result"`
	Keys     []keyRow `json:"keys"`
}

type options struct {
	seed       int64
	seconds    float64
	trace      string // "0", "1" or "both"
	cpuProfile string
	memProfile string
}

func main() {
	var opt options
	workload := flag.String("workload", "", "run one workload (default: all five)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for key order, generated programs and the request schedule")
	flag.Float64Var(&opt.seconds, "seconds", 24, "how long one run measures, per workload")
	flag.StringVar(&opt.trace, "trace", "both", "0: set-up, untraced window, end-to-end metrics; 1: set-up, traced and untraced windows of half the length, probes, per-layer metrics; both: 0 then 1")
	spans := flag.String("spans", "", "write the traced windows' spans to this file as JSON")
	out := flag.String("out", "", "append one JSON record per workload to this file (the input of -compare)")
	compare := flag.String("compare", "", "compare two -out files under the bounds of ./"+specFile+": -compare a.jsonl b.jsonl")
	flag.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the -trace 0 window (needs -workload)")
	flag.StringVar(&opt.memProfile, "memprofile", "", "write an allocation profile after the -trace 0 window (needs -workload)")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(errors.New("-compare takes two files: -compare a.jsonl b.jsonl"))
		}
		worse, err := compareFiles(os.Stdout, specFile, *compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if opt.trace != "0" && opt.trace != "1" && opt.trace != "both" {
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", opt.trace))
	}
	if opt.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	defs := workloadTable
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{*def}
	} else if opt.cpuProfile != "" || opt.memProfile != "" {
		fatal(errors.New("-cpuprofile and -memprofile profile one workload: name it with -workload"))
	}

	// The box has two cores and no workload runs more than two goroutines
	// at once; a larger host must not change what is measured.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	hdr := header{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Commit: commit(),
	}
	line, _ := json.Marshal(map[string]header{"header": hdr})
	fmt.Printf("%s\n", line)

	allSpans := make(map[string]*recorder)
	ok := true
	for i := range defs {
		def := &defs[i]
		rep := &report{def: def}
		var err error
		if opt.trace != "1" {
			err = rep.runUntraced(opt)
		}
		if err == nil && opt.trace != "0" {
			err = rep.runTraced(opt)
		}
		if err != nil {
			// A failed guard or a broken set-up prints no number.
			fatal(fmt.Errorf("%s: %w", def.name, err))
		}
		rep.print(os.Stdout)
		if rep.spans != nil {
			allSpans[def.name] = rep.spans
		}
		rec := record{Header: hdr, Workload: def.name, Result: rep.result(opt.trace), Keys: rep.keys}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		// Marshal fails on a NaN or an infinity: a metric that is not a number
		// is a bug in the benchmark, not a result.
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", def.name, err))
		}
		fmt.Printf("%s\n", line)
		ok = ok && rec.Result.Correct
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report is everything one workload's run produced.
type report struct {
	def       *workloadDef
	setups    []float64
	untraced  *windowResult // of the -trace 0 part
	traced    *windowResult
	endToEnd  map[string]float64
	layers    layerSet
	keys      []keyRow
	spans     *recorder
	attempted int
	failed    int
	fault     error
}

// setUp sets the workload up setupReps times and keeps the last instance.
func (r *report) setUp(seed int64) (instance, error) {
	var inst instance
	r.setups = nil
	for i := 0; i < r.def.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = r.def.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	return inst, nil
}

// window runs one window and applies the workload's guard to it.
func (r *report) window(inst instance, d float64, tr *tracer) (*windowResult, error) {
	w := inst.window(seconds(d), tr)
	r.attempted += w.ops
	r.failed += w.failed
	if r.fault == nil {
		r.fault = w.fault
	}
	return w, inst.guard(w)
}

// runUntraced is -trace 0: set-up, one untraced window, the end-to-end
// metrics. An error means the run is void: nothing is reported.
func (r *report) runUntraced(opt options) error {
	inst, err := r.setUp(opt.seed)
	if err != nil {
		return err
	}
	defer inst.close()
	stop, err := startProfiles(opt)
	if err != nil {
		return err
	}
	uw, err := r.window(inst, opt.seconds, nil)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	base := inst.baseCycles()
	r.untraced = uw
	r.endToEnd = endToEndMetrics(uw, base, median(r.setups))
	r.keys = keyRows(uw, base)
	if got := r.endToEnd["modeled_speedup_vs_base"]; r.def.name == "steady_baseline" && got != 1 {
		// No FTL code runs under the tier cap, so the architecture cannot
		// matter; any other reading is a bug in the engine or the benchmark.
		return fmt.Errorf("modeled_speedup_vs_base reads %v under the Baseline cap, want exactly 1", got)
	}
	return nil
}

// runTraced is -trace 1: set-up, a traced window, an untraced window of the
// same length, the direct probes, the per-layer metrics. The traced window
// comes first so that its modeled range is the same calls as in an untraced
// run, whatever the host's speed.
func (r *report) runTraced(opt options) error {
	inst, err := r.setUp(opt.seed)
	if err != nil {
		return err
	}
	defer inst.close()
	tr := newTracer(time.Now())
	tw, err := r.window(inst, opt.seconds/2, tr)
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	uw, err := r.window(inst, opt.seconds/2, nil)
	if err != nil {
		return err
	}
	// Tracing must not change what the engine computes: the quiet ops of a
	// key cost the same modeled cycles with and without it. The two windows
	// hold different calls of a warm kernel, and a kernel that allocates
	// drifts by a few parts in 10^5 from call to call as its modeled heap
	// addresses move across cache sets (K05: 857,985 against 857,955 cycles),
	// so the windows agree to 1 part in 10^4, not to the bit; a tier, a deopt
	// or a transaction changed by the tracer moves a kernel by percents. A
	// key the governor acted on in either window (an abort, a recompile) may
	// have changed transaction level between them and is left out.
	for k := 0; k < inst.repeatable(); k++ {
		if uw.quietOps[k] == 0 || uw.quietOps[k] != int64(len(uw.ms[k])) || tw.quietOps[k] != int64(len(tw.ms[k])) {
			continue
		}
		u := float64(uw.quietCycles[k]) / float64(uw.quietOps[k])
		t := float64(tw.quietCycles[k]) / float64(tw.quietOps[k])
		if math.Abs(u-t) > 1e-4*u {
			return fmt.Errorf("%s: modeled cycles per op differ between the untraced (%.1f) and traced (%.1f) windows", uw.keys[k], u, t)
		}
	}
	r.traced, r.spans = tw, tr.rec
	r.layers = make(layerSet)
	counterLayers(r.layers, tw)
	tracedLayers(r.layers, uw, tw, tr)
	if err := inst.probe(r.layers, tw); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	return nil
}

// startProfiles starts the CPU profile, if asked for, and returns the
// function that stops it and writes the allocation profile.
func startProfiles(opt options) (stop func() error, err error) {
	var cpu *os.File
	if opt.cpuProfile != "" {
		if cpu, err = os.Create(opt.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if opt.memProfile == "" {
			return nil
		}
		f, err := os.Create(opt.memProfile)
		if err != nil {
			return err
		}
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func keyRows(w *windowResult, base []float64) []keyRow {
	rows := make([]keyRow, len(w.keys))
	for k, key := range w.keys {
		sorted := sortedCopy(w.ms[k])
		row := keyRow{Key: key, Ops: len(sorted), P50Ms: quantile(sorted, 0.5), P90Ms: quantile(sorted, 0.9)}
		if w.modelOps[k] > 0 {
			row.CyclesPerOp = float64(w.cycles[k]) / float64(w.modelOps[k])
			row.Speedup = ratio(base[k], row.CyclesPerOp)
		}
		rows[k] = row
	}
	return rows
}

// result is the driver's view of the run: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *report) result(trace string) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	if trace != "1" {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{r.endToEnd[m.Name], m.Unit}
		}
	}
	if trace != "0" {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{r.layers[m.Name], m.Unit}
		}
	}
	return res
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", r.def.name, r.def.why)
	if r.fault != nil {
		fmt.Fprintf(w, "FIRST FAILED OP: %v\n", r.fault)
	}
	fmt.Fprintf(w, "fail_share %d/%d\n", r.failed, r.attempted)
	if uw := r.untraced; uw != nil {
		fmt.Fprintf(w, "end-to-end (untraced window: %.2f s, %d ops; set-up %d×, median reported):\n", uw.seconds, uw.ops, len(r.setups))
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-28s %16.6f %s\n", m.Name, r.endToEnd[m.Name], m.Unit)
		}
		fmt.Fprintf(w, "  %-8s %6s %12s %12s %16s %10s\n", "key", "ops", "op_ms_p50", "op_ms_p90", "cycles_per_op", "vs_base")
		for _, k := range r.keys {
			fmt.Fprintf(w, "  %-8s %6d %12.4f %12.4f %16.1f %10.4f\n", k.Key, k.Ops, k.P50Ms, k.P90Ms, k.CyclesPerOp, k.Speedup)
		}
	}
	if r.traced != nil {
		fmt.Fprintf(w, "per-layer (traced window: %.2f s, %d ops; spans kept %d, dropped %d):\n", r.traced.seconds, r.traced.ops, len(r.spans.spans), r.spans.dropped)
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-28s %16.6f %s\n", m.Name, r.layers[m.Name], m.Unit)
		}
		fmt.Fprintf(w, "  %-28s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
		for _, name := range r.spans.layerNames() {
			lt := r.spans.layer(name)
			fmt.Fprintf(w, "  %-28s %10d %14.3f %14.3f\n", name, lt.Count, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6)
		}
	}
}
