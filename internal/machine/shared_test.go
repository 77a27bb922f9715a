package machine_test

import (
	"fmt"
	"reflect"
	"testing"

	"nomap/internal/htm"
	"nomap/internal/machine"
	"nomap/internal/vm"
)

// mixedWorkload races two workers over a counter, a striped map, and a
// queue: worker 0 produces, worker 1 consumes (index order matters for the
// reference run, see the SharedWorkload determinism contract).
func mixedWorkload() *machine.SharedWorkload {
	return &machine.SharedWorkload{
		Name: "mixed",
		Decls: []machine.SharedDecl{
			{Kind: machine.DeclCounter, Name: "total"},
			{Kind: machine.DeclCounter, Name: "sum1"},
			{Kind: machine.DeclMap, Name: "tab", Arg: 4},
			{Kind: machine.DeclQueue, Name: "q", Arg: 64},
		},
		Workers: []machine.SharedScript{
			{Rounds: 8, Sections: []machine.SharedSection{
				{{Kind: machine.OpAdd, Target: "total", Imm: 1},
					{Kind: machine.OpMapAdd, Target: "tab", Key: "k", Rotate: true, Imm: 2}},
				{{Kind: machine.OpPush, Target: "q", Imm: 100}},
			}},
			{Rounds: 8, Sections: []machine.SharedSection{
				{{Kind: machine.OpAdd, Target: "total", Imm: 1}},
				{{Kind: machine.OpPop, Target: "q"}},
				{{Kind: machine.OpPublish, Target: "sum1"}},
			}},
		},
	}
}

func TestSharedScheduledMatchesReference(t *testing.T) {
	wl := mixedWorkload()
	ref, err := machine.RunReference(wl)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, arch := range vm.AllArchs {
		for seed := int64(0); seed < 6; seed++ {
			got, err := machine.RunScheduled(wl, arch, seed, machine.SharedOptions{})
			if err != nil {
				t.Fatalf("%v seed %d: %v", arch, seed, err)
			}
			if got.Snapshot != ref.Snapshot {
				t.Errorf("%v seed %d: snapshot diverged\n got: %s\nwant: %s",
					arch, seed, got.Snapshot, ref.Snapshot)
			}
			if !reflect.DeepEqual(got.Accs, ref.Accs) {
				t.Errorf("%v seed %d: accumulators %v, want %v", arch, seed, got.Accs, ref.Accs)
			}
			c := got.Merged
			if c.TxBegins != c.TxCommits+c.TxAborts {
				t.Errorf("%v seed %d: tx leak: %d begins, %d commits, %d aborts",
					arch, seed, c.TxBegins, c.TxCommits, c.TxAborts)
			}
			if sub := c.TxCapacityAborts + c.TxCheckAborts + c.TxSOFAborts +
				c.TxIrrevocableAborts + c.TxConflictAborts; sub != c.TxAborts {
				t.Errorf("%v seed %d: abort causes (%d) do not partition aborts (%d)",
					arch, seed, sub, c.TxAborts)
			}
		}
	}
}

func TestSharedScheduledDeterminism(t *testing.T) {
	wl := mixedWorkload()
	var evA, evB []string
	runOnce := func(ev *[]string) *machine.SharedResult {
		res, err := machine.RunScheduled(wl, vm.ArchNoMap, 42, machine.SharedOptions{
			Tracer: func(e machine.Event) { *ev = append(*ev, e.String()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(&evA), runOnce(&evB)
	if a.Snapshot != b.Snapshot || !reflect.DeepEqual(a.Accs, b.Accs) ||
		!reflect.DeepEqual(a.Merged, b.Merged) || a.Steps != b.Steps {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("same seed produced different event streams (%d vs %d events)", len(evA), len(evB))
	}
}

func TestSharedBaseRunsAllFallback(t *testing.T) {
	wl := mixedWorkload()
	res, err := machine.RunScheduled(wl, vm.ArchBase, 1, machine.SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.TxBegins != 0 {
		t.Fatalf("Base opened %d transactions", res.Merged.TxBegins)
	}
	if res.Merged.SharedFallbackAcquires == 0 {
		t.Fatal("Base never took the fallback lock")
	}
	ref, _ := machine.RunReference(wl)
	if res.Snapshot != ref.Snapshot {
		t.Fatalf("Base snapshot %s, want %s", res.Snapshot, ref.Snapshot)
	}
}

// hotWorkload is a two-worker storm on one counter — every section conflicts
// on the same cache line.
func hotWorkload(rounds int) *machine.SharedWorkload {
	sec := machine.SharedSection{{Kind: machine.OpAdd, Target: "hot", Imm: 1}}
	script := machine.SharedScript{Rounds: rounds, Sections: []machine.SharedSection{sec}}
	return &machine.SharedWorkload{
		Name:    "hot",
		Decls:   []machine.SharedDecl{{Kind: machine.DeclCounter, Name: "hot"}},
		Workers: []machine.SharedScript{script, script},
	}
}

func TestSharedForcedConflictLadder(t *testing.T) {
	wl := hotWorkload(12)
	// Force a conflict at every worker-0 shared access until the governor
	// demotes the site: the run must climb conflict-abort → backoff →
	// fallback and still converge to the reference state.
	forced := 0
	res, err := machine.RunScheduled(wl, vm.ArchNoMap, 3, machine.SharedOptions{
		Configure: func(id int, sys *htm.System) {
			if id == 0 {
				sys.SetConflictProbe(func(write bool, line uint64) bool {
					if forced < 4 {
						forced++
						return true
					}
					return false
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := machine.RunReference(wl)
	if res.Snapshot != ref.Snapshot {
		t.Fatalf("snapshot %s, want %s", res.Snapshot, ref.Snapshot)
	}
	c := res.Merged
	if c.TxConflictAborts == 0 {
		t.Fatal("forced conflicts produced no conflict aborts")
	}
	if c.SharedBackoffs == 0 {
		t.Fatal("conflict aborts produced no backoff windows")
	}
	if c.SharedFallbackAcquires == 0 {
		t.Fatal("conflict storm never reached the fallback lock")
	}
}

func TestSharedCapacityRetreat(t *testing.T) {
	wl := hotWorkload(4)
	// Force a capacity overflow on worker 0's first tracked line: the
	// section must retreat to the fallback immediately (no backoff) and the
	// final state must still match.
	first := true
	res, err := machine.RunScheduled(wl, vm.ArchNoMap, 5, machine.SharedOptions{
		Configure: func(id int, sys *htm.System) {
			if id == 0 {
				sys.SetCapacityProbe(func(write bool, line uint64) bool {
					if first {
						first = false
						return true
					}
					return false
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := machine.RunReference(wl)
	if res.Snapshot != ref.Snapshot {
		t.Fatalf("snapshot %s, want %s", res.Snapshot, ref.Snapshot)
	}
	if res.Merged.TxCapacityAborts != 1 {
		t.Fatalf("TxCapacityAborts = %d, want 1", res.Merged.TxCapacityAborts)
	}
	var capFallbacks int64
	for _, s := range res.Sites {
		capFallbacks += s.Capacities
	}
	if capFallbacks != 1 {
		t.Fatalf("governor capacity ledger = %d, want 1", capFallbacks)
	}
}

func TestSharedValidation(t *testing.T) {
	wl := &machine.SharedWorkload{
		Name:  "bad",
		Decls: []machine.SharedDecl{{Kind: machine.DeclCounter, Name: "c"}},
		Workers: []machine.SharedScript{
			{Sections: []machine.SharedSection{{{Kind: machine.OpPush, Target: "c"}}}},
		},
	}
	if _, err := machine.RunScheduled(wl, vm.ArchNoMap, 0, machine.SharedOptions{}); err == nil {
		t.Fatal("pushing to a counter passed validation")
	}
	if _, err := machine.RunReference(wl); err == nil {
		t.Fatal("reference accepted an invalid workload")
	}
}

func TestSharedReferenceStuckIsError(t *testing.T) {
	wl := &machine.SharedWorkload{
		Name:  "stuck",
		Decls: []machine.SharedDecl{{Kind: machine.DeclQueue, Name: "q", Arg: 4}},
		Workers: []machine.SharedScript{
			{Sections: []machine.SharedSection{{{Kind: machine.OpPop, Target: "q"}}}},
		},
	}
	if _, err := machine.RunReference(wl); err == nil {
		t.Fatal("popping an empty queue in the reference run did not error")
	}
}

// TestSharedRollbackPerUndoKind checks that every record kind of the shared
// section log restores what its op overwrote, on both replay paths: a
// transaction killed by another worker taking the fallback lock (lock
// elision), and a fallback section whose guard fails after an earlier op of
// the section mutated. The planted bug — a replay that forgets one kind —
// must be noticed for every kind.
func TestSharedRollbackPerUndoKind(t *testing.T) {
	decls := []machine.SharedDecl{
		{Kind: machine.DeclCounter, Name: "c"},
		{Kind: machine.DeclCounter, Name: "sum"},
		{Kind: machine.DeclCounter, Name: "other"},
		{Kind: machine.DeclMap, Name: "tab", Arg: 4},
		{Kind: machine.DeclQueue, Name: "q", Arg: 8},
	}
	op := func(kind machine.SharedOpKind, target string, imm int64) machine.SharedSection {
		return machine.SharedSection{{Kind: kind, Target: target, Key: "k", Imm: imm}}
	}
	// Each case's last section is the writing op under test; the sections
	// before it commit first and give it state to overwrite.
	cases := []struct {
		name     string
		sections []machine.SharedSection
		kind     machine.SharedUndoKind
	}{
		{"add", []machine.SharedSection{op(machine.OpAdd, "c", 3)}, machine.UndoCounter},
		{"publish", []machine.SharedSection{op(machine.OpAdd, "c", 5), op(machine.OpReadCtr, "c", 0),
			op(machine.OpPublish, "sum", 0)}, machine.UndoCounter},
		{"map-add", []machine.SharedSection{op(machine.OpMapAdd, "tab", 2)}, machine.UndoMapKey},
		{"push", []machine.SharedSection{op(machine.OpPush, "q", 100)}, machine.UndoQueueTail},
		{"pop", []machine.SharedSection{op(machine.OpPush, "q", 9), op(machine.OpPop, "q", 0)}, machine.UndoQueueHead},
	}

	// stepUntil steps w until done holds.
	stepUntil := func(t *testing.T, r *machine.SharedRun, w *machine.SharedWorker, done func() bool) {
		t.Helper()
		for i := 0; !done(); i++ {
			if i == 100 {
				t.Fatalf("worker %d made no progress", w.ID)
			}
			if _, err := r.StepLocked(w); err != nil {
				t.Fatal(err)
			}
		}
	}

	// killAfterOp runs worker 0 until the op under test has completed inside
	// its transaction, then lets worker 1 — forced off the fast path by a
	// capacity probe — take the fallback lock, which kills worker 0's
	// transaction. It reports how the heap and worker 0's accumulator differ
	// from their values at the section start. drop names the kind the
	// planted bug forgets, or -1.
	killAfterOp := func(t *testing.T, arch vm.Arch, sections []machine.SharedSection, drop int) (diffs []string, dropped int) {
		wl := &machine.SharedWorkload{Name: "rollback", Decls: decls, Workers: []machine.SharedScript{
			{Sections: sections},
			{Sections: []machine.SharedSection{op(machine.OpAdd, "other", 1)}},
		}}
		r, err := machine.NewSharedRun(wl, arch, 1, machine.SharedOptions{
			Configure: func(id int, sys *htm.System) {
				if id == 1 {
					sys.SetCapacityProbe(func(bool, uint64) bool { return true })
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		w0, w1 := r.Workers[0], r.Workers[1]
		last := int64(len(sections) - 1)
		stepUntil(t, r, w0, func() bool { return w0.Ctrs.TxCommits == last })
		heap, acc := r.Heap.Snapshot(), w0.Acc
		stepUntil(t, r, w0, func() bool { return w0.Ctrs.SharedOps == last+1 })
		if !w0.Sys().InTx() || r.Heap.Snapshot() == heap {
			t.Fatalf("the op did not mutate inside a transaction (open=%v, heap %s)", w0.Sys().InTx(), heap)
		}
		if drop >= 0 {
			dropped = w0.DropSharedUndoKind(machine.SharedUndoKind(drop))
		}
		stepUntil(t, r, w1, r.Dom.FallbackHeld)
		if w0.Sys().InTx() {
			t.Fatal("taking the fallback lock left worker 0's transaction open")
		}
		if got := r.Heap.Snapshot(); got != heap {
			diffs = append(diffs, fmt.Sprintf("heap %s, want %s", got, heap))
		}
		if w0.Acc != acc {
			diffs = append(diffs, fmt.Sprintf("accumulator %d, want %d", w0.Acc, acc))
		}
		return diffs, dropped
	}

	for _, arch := range []vm.Arch{vm.ArchNoMap, vm.ArchNoMapRTM} {
		for _, tc := range cases {
			t.Run(arch.String()+"/kill/"+tc.name, func(t *testing.T) {
				if diffs, _ := killAfterOp(t, arch, tc.sections, -1); len(diffs) != 0 {
					t.Errorf("rollback after a lock-elision kill: %v", diffs)
				}
				diffs, dropped := killAfterOp(t, arch, tc.sections, int(tc.kind))
				if dropped == 0 {
					t.Errorf("kind %d: the op logged no such record", tc.kind)
				} else if len(diffs) == 0 {
					t.Errorf("kind %d: rollback without its %d records went unnoticed", tc.kind, dropped)
				}
			})
		}
	}

	// guardRetry runs [add, pop on an empty queue] on the fallback path: the
	// pop's guard fails after the add has mutated, and the counter must be
	// restored before the lock drops.
	guardRetry := func(t *testing.T, drop int) (diffs []string, dropped int) {
		wl := &machine.SharedWorkload{Name: "guard", Decls: decls, Workers: []machine.SharedScript{
			{Sections: []machine.SharedSection{append(op(machine.OpAdd, "c", 1), op(machine.OpPop, "q", 0)...)}},
		}}
		r, err := machine.NewSharedRun(wl, vm.ArchBase, 1, machine.SharedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w := r.Workers[0]
		heap := r.Heap.Snapshot()
		stepUntil(t, r, w, func() bool { return w.Ctrs.SharedOps == 1 })
		if !r.Dom.FallbackHeld() || r.Heap.Snapshot() == heap {
			t.Fatalf("the add did not run under the fallback lock (held=%v, heap %s)", r.Dom.FallbackHeld(), heap)
		}
		if drop >= 0 {
			dropped = w.DropSharedUndoKind(machine.SharedUndoKind(drop))
		}
		stepUntil(t, r, w, func() bool { return !r.Dom.FallbackHeld() })
		if got := r.Heap.Snapshot(); got != heap {
			diffs = append(diffs, fmt.Sprintf("heap %s, want %s", got, heap))
		}
		return diffs, dropped
	}
	t.Run("Base/guard-retry", func(t *testing.T) {
		if diffs, _ := guardRetry(t, -1); len(diffs) != 0 {
			t.Errorf("rollback after a failed fallback guard: %v", diffs)
		}
		diffs, dropped := guardRetry(t, int(machine.UndoCounter))
		if dropped == 0 || len(diffs) == 0 {
			t.Errorf("dropping the counter record: %d dropped, diffs %v; want both non-empty", dropped, diffs)
		}
	})
}

// BenchmarkSharedScheduled is one seeded run of the mixed workload under
// NoMap: the shared-section step machine, its op semantics and rollback log,
// the HTM model and the conflict domain.
func BenchmarkSharedScheduled(b *testing.B) {
	wl := mixedWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := machine.RunScheduled(wl, vm.ArchNoMap, 1, machine.SharedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
