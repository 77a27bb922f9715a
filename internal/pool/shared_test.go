package pool

import (
	"reflect"
	"runtime"
	"testing"

	"nomap/internal/machine"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// The race soak in CI runs these tests under -race with GOMAXPROCS swept
// over {1, 2, 8}: the concurrent mode must be race-clean and must converge
// to the single-threaded reference state under any physical interleaving.

func TestSharedHeapConcurrentAgreement(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	for _, wl := range workloads.Contention() {
		ref, err := machine.RunReference(wl)
		if err != nil {
			t.Fatalf("%s: reference: %v", wl.Name, err)
		}
		for _, arch := range []vm.Arch{vm.ArchBase, vm.ArchNoMap, vm.ArchNoMapRTM} {
			res, err := p.RunShared(wl, arch, 1, machine.SharedOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", wl.Name, arch, err)
			}
			if res.Snapshot != ref.Snapshot {
				t.Errorf("%s/%v: snapshot %q, reference %q", wl.Name, arch, res.Snapshot, ref.Snapshot)
			}
			if !reflect.DeepEqual(res.Accs, ref.Accs) {
				t.Errorf("%s/%v: accs %v, reference %v", wl.Name, arch, res.Accs, ref.Accs)
			}
			c := res.Merged
			if c.TxBegins != c.TxCommits+c.TxAborts {
				t.Errorf("%s/%v: tx leak: %d begins, %d commits, %d aborts",
					wl.Name, arch, c.TxBegins, c.TxCommits, c.TxAborts)
			}
			if sub := c.TxCapacityAborts + c.TxCheckAborts + c.TxSOFAborts +
				c.TxIrrevocableAborts + c.TxConflictAborts; sub != c.TxAborts {
				t.Errorf("%s/%v: abort causes (%d) do not partition aborts (%d)",
					wl.Name, arch, sub, c.TxAborts)
			}
		}
	}
	if p.Stats().Counters.SharedOps == 0 {
		t.Error("pool totals did not absorb shared-run counters")
	}
}

// TestSharedHeapConcurrentSoak re-runs the hot-counter storm to give the Go
// scheduler many chances to produce a harmful physical interleaving.
func TestSharedHeapConcurrentSoak(t *testing.T) {
	wl, _ := workloads.ContentionByID("T02")
	ref, err := machine.RunReference(wl)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Workers: 1})
	defer p.Close()
	for i := 0; i < 20; i++ {
		res, err := p.RunShared(wl, vm.ArchNoMap, int64(i), machine.SharedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot != ref.Snapshot {
			t.Fatalf("run %d: snapshot %q, reference %q", i, res.Snapshot, ref.Snapshot)
		}
	}
}

// A shared run merges its counters into the pool's totals while Stats reads
// them and a worker merges a served request's: all three must go through
// the totals' one mutex, which -race checks. The race detector flags any
// two accesses no synchronization orders, however far apart in time, so
// the scraper reads before and during the shared runs.
func TestSharedRunMergesBesideStats(t *testing.T) {
	wl, _ := workloads.ContentionByID("T02")
	p := New(Config{Workers: 1})
	defer p.Close()
	const rounds = 6
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rounds {
			if resp := p.Do(Request{Source: "function run(n) { return n + 1; }", Calls: 2}); resp.Err != nil {
				t.Error(resp.Err)
			}
		}
	}()
	stop := make(chan struct{})
	scraped := make(chan struct{})
	defer func() {
		close(stop)
		<-scraped
	}()
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Stats()
				runtime.Gosched()
			}
		}
	}()
	for i := range rounds {
		if _, err := p.RunShared(wl, vm.ArchNoMap, int64(i), machine.SharedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if s := p.Stats(); s.Counters.SharedOps == 0 || s.Completed != rounds {
		t.Errorf("totals: %d shared ops, %d completed requests; want shared ops and %d requests", s.Counters.SharedOps, s.Completed, rounds)
	}
}
