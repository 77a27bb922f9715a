package nomap

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"nomap/internal/codecache"
	"nomap/internal/harness"
	"nomap/internal/isolate"
	"nomap/internal/jit"
	"nomap/internal/oracle"
	"nomap/internal/pool"
	"nomap/internal/profile"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// The serving layer's differential guarantee: a pooled, warm-started,
// cache-sharing isolate must be observationally identical — per-call
// results, print output, final reachable heap — to a dedicated cold engine,
// for every workload and every architecture configuration. Only the
// invisible warmup work (profiling, tier-up, compilation) may differ.

func servingConfig(arch vm.Arch) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = harness.FastPolicy()
	return cfg
}

type coldRun struct {
	results []string
	output  []string
	heap    string
}

// coldReference runs src on a dedicated single-tenant isolate with no cache
// and no snapshots — the behaviour the pool must reproduce byte-for-byte.
func coldReference(t *testing.T, cfg vm.Config, src string, calls, arg int) coldRun {
	t.Helper()
	iso := isolate.New(cfg)
	progs := codecache.NewPrograms()
	entry, err := progs.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Load(entry); err != nil {
		t.Fatal(err)
	}
	var r coldRun
	for i := 0; i < calls; i++ {
		v, err := iso.VM().CallGlobal("run", value.Int(int32(arg)))
		if err != nil {
			t.Fatal(err)
		}
		r.results = append(r.results, v.ToStringValue())
	}
	r.output = append([]string(nil), iso.VM().Output...)
	r.heap = oracle.SnapshotHeap(iso.VM().Globals())
	return r
}

func checkResponse(t *testing.T, label string, resp pool.Response, heap string, ref coldRun) {
	t.Helper()
	if resp.Err != nil {
		t.Fatalf("%s: %v", label, resp.Err)
	}
	if !reflect.DeepEqual(resp.Results, ref.results) {
		t.Errorf("%s: results diverge from cold isolate\n got %v\nwant %v", label, resp.Results, ref.results)
	}
	if !reflect.DeepEqual(resp.Output, append([]string(nil), ref.output...)) &&
		!(len(resp.Output) == 0 && len(ref.output) == 0) {
		t.Errorf("%s: output diverges from cold isolate", label)
	}
	if heap != ref.heap {
		t.Errorf("%s: final heap diverges from cold isolate\n got %s\nwant %s", label, heap, ref.heap)
	}
	if err := oracle.CheckCounters(&resp.Counters); err != nil {
		t.Errorf("%s: counters: %v", label, err)
	}
	c := &resp.Counters
	if c.TxBegins != c.TxCommits+c.TxAborts {
		t.Errorf("%s: transaction leak: begins=%d commits=%d aborts=%d",
			label, c.TxBegins, c.TxCommits, c.TxAborts)
	}
}

func allServingWorkloads() []workloads.Workload {
	var all []workloads.Workload
	all = append(all, workloads.SunSpider()...)
	all = append(all, workloads.Kraken()...)
	all = append(all, workloads.Shootout()...)
	all = append(all, workloads.Adversarial()...)
	return all
}

// TestPoolMatchesColdIsolateAllWorkloads runs the entire workload suite
// (SunSpider, Kraken, Shootout, and the four adversarial programs) through
// the pool twice — the second pass warm-started from the first's snapshot —
// and requires byte-identical observations against a cold engine.
func TestPoolMatchesColdIsolateAllWorkloads(t *testing.T) {
	t.Parallel()
	cfg := servingConfig(vm.ArchNoMap)
	p := pool.New(pool.Config{Workers: 2, VM: cfg})
	defer p.Close()
	const calls = 10

	suite := allServingWorkloads()
	if raceDetectorEnabled {
		// Under the detector's ~10x slowdown, sample the suite but always
		// keep the adversarial programs; the full matrix runs without -race.
		var sampled []workloads.Workload
		for i, w := range suite {
			if w.Suite == "Adversarial" || i%4 == 0 {
				sampled = append(sampled, w)
			}
		}
		suite = sampled
	}
	for _, w := range suite {
		ref := coldReference(t, cfg, w.Source, calls, 0)
		for pass, wantWarm := range []bool{false, true} {
			var heap string
			resp := p.Do(pool.Request{
				Source:  w.Source,
				Calls:   calls,
				Observe: func(v *vm.VM) { heap = oracle.SnapshotHeap(v.Globals()) },
			})
			label := fmt.Sprintf("%s pass %d", w.ID, pass)
			checkResponse(t, label, resp, heap, ref)
			if resp.Warm != wantWarm {
				t.Errorf("%s: warm=%v, want %v", label, resp.Warm, wantWarm)
			}
		}
	}
	st := p.Stats()
	if st.Failed != 0 {
		t.Errorf("pool failures: %+v", st)
	}
	if st.Cache.Hits == 0 || st.Counters.SnapshotRestores == 0 {
		t.Errorf("sharing machinery idle: cache=%+v restores=%d", st.Cache, st.Counters.SnapshotRestores)
	}
}

// TestPoolAdversarialAllArchs repeats the differential check for the four
// governor-stressing adversarial workloads across all six architecture
// configurations, using per-request arch overrides on one pool.
func TestPoolAdversarialAllArchs(t *testing.T) {
	t.Parallel()
	p := pool.New(pool.Config{Workers: 2, VM: servingConfig(vm.ArchNoMap), SnapshotMinCalls: 4})
	defer p.Close()
	const calls = 6

	archs := vm.AllArchs
	if raceDetectorEnabled {
		archs = []vm.Arch{vm.ArchBase, vm.ArchNoMap, vm.ArchNoMapRTM}
	}
	for _, w := range workloads.Adversarial() {
		for _, arch := range archs {
			arch := arch
			ref := coldReference(t, servingConfig(arch), w.Source, calls, 0)
			for pass := 0; pass < 2; pass++ {
				var heap string
				resp := p.Do(pool.Request{
					Source:  w.Source,
					Calls:   calls,
					Arch:    &arch,
					Observe: func(v *vm.VM) { heap = oracle.SnapshotHeap(v.Globals()) },
				})
				checkResponse(t, fmt.Sprintf("%s/%s pass %d", w.ID, arch, pass), resp, heap, ref)
			}
		}
	}
}

// TestOracleSweepOnPoolIsolates points the fault-injection oracle's engine
// factory at pool-drawn isolates: every injected abort and deopt must
// produce reference behaviour on a recycled, cache-sharing engine exactly
// as it does on a dedicated one. The sweep runs unmodified — only the
// engine supply changes.
func TestOracleSweepOnPoolIsolates(t *testing.T) {
	t.Parallel()
	p := pool.New(pool.Config{Workers: 2, VM: servingConfig(vm.ArchNoMap)})
	defer p.Close()

	prog := oracle.Program{
		Name: "pool-sweep",
		Setup: `
var a = [];
for (var i = 0; i < 24; i++) a[i] = i;
var o = {acc: 0};
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = (s + a[i % 24]) | 0;
    o.acc = o.acc + 1;
  }
  return s + o.acc;
}
`,
		Calls:     60,
		Arg:       16,
		Poison:    `a[7] = "boom";`,
		PostCalls: 3,
	}
	archs := []vm.Arch{vm.ArchNoMap, vm.ArchNoMapRTM}
	if raceDetectorEnabled {
		archs = archs[:1]
	}
	rep, err := oracle.Sweep(prog, oracle.Config{
		Archs:          archs,
		CapacityPoints: 2,
		RandomTrials:   2,
		Seed:           11,
		Engines: func(arch vm.Arch, maxTier profile.Tier) oracle.Engine {
			return &pooledEngine{p: p, iso: p.Checkout(arch, maxTier)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("pool-drawn engine failed oracle: %s", f)
	}
	for _, ar := range rep.Archs {
		if len(ar.Sites) == 0 || ar.InjectedAborts == 0 {
			t.Errorf("%v: sweep did not exercise injections (sites=%d aborts=%d)",
				ar.Arch, len(ar.Sites), ar.InjectedAborts)
		}
	}
}

type pooledEngine struct {
	p   *pool.Pool
	iso *isolate.Isolate
}

func (e *pooledEngine) VM() *vm.VM            { return e.iso.VM() }
func (e *pooledEngine) Backend() *jit.Backend { return e.iso.Backend() }
func (e *pooledEngine) Done()                 { e.p.Return(e.iso) }

// TestPoolSoak is the race-detector soak CI runs (NOMAP_SOAK=1
// go test -race -run TestPoolSoak): concurrent submitters hammer one pool
// with the mixed workload set — adversarial programs included — across
// rotating architectures, verifying every response against cold references.
func TestPoolSoak(t *testing.T) {
	if os.Getenv("NOMAP_SOAK") == "" {
		t.Skip("soak disabled; set NOMAP_SOAK=1")
	}
	budget := 30 * time.Second

	var mix []workloads.Workload
	for _, id := range []string{"S01", "S03", "S05", "K01", "K02"} {
		if w, ok := workloads.ByID(id); ok {
			mix = append(mix, w)
		}
	}
	mix = append(mix, workloads.Adversarial()...)

	const calls = 8
	refs := make(map[string]map[vm.Arch]coldRun)
	for _, w := range mix {
		refs[w.ID] = make(map[vm.Arch]coldRun)
		for _, arch := range vm.AllArchs {
			refs[w.ID][arch] = coldReference(t, servingConfig(arch), w.Source, calls, 0)
		}
	}

	p := pool.New(pool.Config{Workers: 4, VM: servingConfig(vm.ArchNoMap), SnapshotMinCalls: 4})
	defer p.Close()

	// The clock starts only once the references exist: under -race on a
	// slow host, building them can exceed the soak budget itself.
	deadline := time.Now().Add(budget)
	const submitters = 4
	done := make(chan int, submitters)
	for g := 0; g < submitters; g++ {
		g := g
		go func() {
			served := 0
			for i := 0; time.Now().Before(deadline); i++ {
				w := mix[(g+i)%len(mix)]
				arch := vm.AllArchs[(g*7+i)%len(vm.AllArchs)]
				resp := p.Do(pool.Request{Source: w.Source, Calls: calls, Arch: &arch})
				if resp.Err == pool.ErrQueueFull {
					continue // backpressure is expected under load
				}
				if resp.Err != nil {
					t.Errorf("%s/%s: %v", w.ID, arch, resp.Err)
					break
				}
				ref := refs[w.ID][arch]
				if !reflect.DeepEqual(resp.Results, ref.results) {
					t.Errorf("%s/%s: pooled results diverge under soak", w.ID, arch)
					break
				}
				served++
			}
			done <- served
		}()
	}
	total := 0
	for g := 0; g < submitters; g++ {
		total += <-done
	}
	st := p.Stats()
	t.Logf("soak: %d responses verified in %v; cache %+v; restores %d",
		total, budget, st.Cache, st.Counters.SnapshotRestores)
	if total == 0 {
		t.Error("soak served nothing")
	}
}
