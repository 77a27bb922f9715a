package loadgen_test

import (
	"reflect"
	"testing"

	"nomap/internal/loadgen"
	"nomap/internal/vm"
)

const loopProgram = `
var o = {acc: 0};
function run(n) {
  var s = 0;
  for (var i = 0; i < 200; i++) {
    s = (s + i * n) | 0;
    o.acc = (o.acc + 1) | 0;
  }
  return s + o.acc;
}
`

// spinProgram is compile-dominated: calls are cheap, but enough of them
// trigger optimizing tier-up, so the on-path compile is the bulk of a cold
// request's cost. This is the shape the background compile queue exists for.
const spinProgram = `
function run(n) {
  var s = 0;
  for (var i = 0; i < 4; i++) {
    s = (s + i * n) | 0;
  }
  return s;
}
`

func measuredKey(t *testing.T) loadgen.KeyProfile {
	t.Helper()
	kp, err := loadgen.MeasureKey("loop", loopProgram, 16, 3, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func measuredSpinKey(t *testing.T) loadgen.KeyProfile {
	t.Helper()
	kp, err := loadgen.MeasureKey("spin", spinProgram, 64, 3, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// TestMeasureKeyProfiles checks the engine-derived cost profile is coherent:
// warmth must pay off, compilation must cost something, and the pinned
// result must be present for drift detection.
func TestMeasureKeyProfiles(t *testing.T) {
	kp := measuredKey(t)
	t.Logf("profile: %+v", kp)
	if kp.ColdCycles <= 0 || kp.WarmCycles <= 0 || kp.BaselineCycles <= 0 {
		t.Fatalf("non-positive cycle counts: %+v", kp)
	}
	if kp.CompileCycles <= 0 {
		t.Fatalf("cold run compiled nothing: %+v", kp)
	}
	if kp.WarmCycles >= kp.ColdCycles+kp.CompileCycles {
		t.Errorf("warm start (%d) not cheaper than cold+compile (%d)",
			kp.WarmCycles, kp.ColdCycles+kp.CompileCycles)
	}
	if kp.Result == "" {
		t.Error("no pinned result")
	}
	// Re-measuring must be bit-identical: the whole benchmark chain rests on
	// the engine's determinism.
	if again := measuredKey(t); again != kp {
		t.Errorf("re-measure diverged: %+v vs %+v", again, kp)
	}
}

// TestSimDeterminism: identical SimConfig → identical SimResult, the
// property that lets CI gate on a committed snapshot at a tight ceiling.
func TestSimDeterminism(t *testing.T) {
	kp := measuredKey(t)
	cfg := loadgen.SimConfig{
		Workers:  8,
		QPS:      20000,
		Requests: 5000,
		Seed:     42,
		Keys:     []loadgen.KeyProfile{kp},
		Coalesce: true,
	}
	a := loadgen.Run(cfg)
	b := loadgen.Run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
	if a.Completed == 0 || a.ThroughputQPS <= 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	c := cfg
	c.Seed = 43
	if reflect.DeepEqual(loadgen.Run(c), a) {
		t.Error("different seeds produced identical results; arrivals are not seeded")
	}
}

// TestSimColdBurstAsyncBeatsSync is the acceptance A/B for the compile
// queue: on a burst of distinct cold tenants, deferring tier-up compilation
// off the request path must cut the p999 versus compiling on-path.
func TestSimColdBurstAsyncBeatsSync(t *testing.T) {
	kp := measuredSpinKey(t)
	t.Logf("spin profile: %+v", kp)
	if kp.BaselineCycles >= kp.ColdCycles+kp.CompileCycles {
		t.Fatalf("workload not compile-dominated (baseline %d ≥ cold+compile %d); the A/B is meaningless",
			kp.BaselineCycles, kp.ColdCycles+kp.CompileCycles)
	}
	base := loadgen.SimConfig{
		Workers:    8,
		QueueDepth: 256,
		QPS:        10000,
		Requests:   2000,
		Seed:       7,
		Keys:       []loadgen.KeyProfile{kp},
		ColdKeys:   true,
	}
	sync := loadgen.Run(base)

	async := base
	async.Async = true
	ar := loadgen.Run(async)

	t.Logf("sync:  %+v", sync)
	t.Logf("async: %+v", ar)
	if ar.Completed != sync.Completed+sync.Rejected && ar.Completed == 0 {
		t.Fatalf("async run degenerate: %+v", ar)
	}
	if ar.P999 >= sync.P999 {
		t.Errorf("async p999 (%dµs) not better than sync p999 (%dµs) on cold burst",
			ar.P999, sync.P999)
	}
	if ar.CompileJobs == 0 {
		t.Error("async run scheduled no background rehearsals")
	}
}

// TestSimCoalesceCutsColdStampede: many concurrent cold requests for one
// key — coalescing elects one leader and the rest wait it out warm, so tail
// latency and throughput must both improve over everyone compiling alone.
func TestSimCoalesceCutsColdStampede(t *testing.T) {
	kp := measuredKey(t)
	base := loadgen.SimConfig{
		Workers:    8,
		QueueDepth: 256,
		QPS:        50000,
		Requests:   200,
		Seed:       11,
		Keys:       []loadgen.KeyProfile{kp},
	}
	solo := loadgen.Run(base)

	co := base
	co.Coalesce = true
	cr := loadgen.Run(co)

	t.Logf("solo:      %+v", solo)
	t.Logf("coalesced: %+v", cr)
	if cr.P99 > solo.P99 {
		t.Errorf("coalescing worsened p99: %dµs > %dµs", cr.P99, solo.P99)
	}
	if cr.ThroughputQPS < solo.ThroughputQPS {
		t.Errorf("coalescing lost throughput: %.0f < %.0f", cr.ThroughputQPS, solo.ThroughputQPS)
	}
}
