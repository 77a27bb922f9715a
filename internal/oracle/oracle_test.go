package oracle

import (
	"strings"
	"testing"

	"nomap/internal/machine"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// hotProgram is a minimal speculation-heavy subject: an array-summing hot
// loop plus a poison step that invalidates type speculation mid-run.
var hotProgram = Program{
	Name: "hot-sum",
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

func TestReferenceIsClean(t *testing.T) {
	ref := Reference(hotProgram)
	if ref.Err != "" {
		t.Fatalf("reference errored: %s", ref.Err)
	}
	if len(ref.Results) != hotProgram.Calls+hotProgram.PostCalls {
		t.Fatalf("got %d results, want %d", len(ref.Results), hotProgram.Calls+hotProgram.PostCalls)
	}
	if ref.Heap == "" || !strings.Contains(ref.Heap, "acc") {
		t.Fatalf("heap snapshot missing globals: %q", ref.Heap)
	}
}

func TestSnapshotDistinguishesHoleFromUndefined(t *testing.T) {
	p := Program{Name: "holes", Setup: `
var h = []; h[3] = 1;
var u = []; u[0] = undefined; u[1] = undefined; u[2] = undefined; u[3] = 1;
function run(n) { return n; }
`, Calls: 1, Arg: 0}
	ref := Reference(p)
	if ref.Err != "" {
		t.Fatalf("reference errored: %s", ref.Err)
	}
	if !strings.Contains(ref.Heap, "<hole>,<hole>,<hole>,1") {
		t.Errorf("holes not rendered: %s", ref.Heap)
	}
	if !strings.Contains(ref.Heap, "undefined,undefined,undefined,1") {
		t.Errorf("stored undefineds not rendered: %s", ref.Heap)
	}
}

func TestSweepEnumeratesAndInjects(t *testing.T) {
	cfg := Config{
		Archs:          []vm.Arch{vm.ArchNoMap, vm.ArchNoMapRTM},
		MaxTier:        profile.TierFTL,
		CapacityPoints: 2,
		RandomTrials:   4,
		Seed:           7,
	}
	rep, err := Sweep(hotProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("failure: %s", f)
	}
	for _, ar := range rep.Archs {
		if len(ar.Sites) == 0 {
			t.Errorf("%v: no sites enumerated", ar.Arch)
		}
		kinds := map[machine.SiteKind]int{}
		for _, s := range ar.Sites {
			kinds[s.Key.Kind]++
		}
		if kinds[machine.SiteCheck] == 0 {
			t.Errorf("%v: no check sites", ar.Arch)
		}
		if kinds[machine.SiteTxBegin] == 0 || kinds[machine.SiteTxCommit] == 0 {
			t.Errorf("%v: no transaction boundary sites (%v)", ar.Arch, kinds)
		}
		if ar.WriteLines == 0 {
			t.Errorf("%v: no transactional write lines recorded", ar.Arch)
		}
		if ar.InjectedAborts == 0 {
			t.Errorf("%v: injections produced no aborts", ar.Arch)
		}
	}
}

// raisingProgram's property read goes megamorphic (twelve receiver shapes), so
// compiled code runs it as the generic getprop runtime entry; the poison step
// plants a null receiver, and the post-poison call raises from that entry —
// directly in Base, as an irrevocable abort and Baseline re-execution inside
// a transaction.
var raisingProgram = Program{
	Name: "raise-megamorphic",
	Setup: `
var objs = [];
for (var i = 0; i < 48; i++) {
  var o = {};
  o["k" + (i % 12)] = i;
  o.v = i;
  objs.push(o);
}
function run(n) {
  var s = 0;
  for (var i = 0; i < n; i++) s = s + objs[i].v;
  return s;
}
`,
	Calls:     60,
	Arg:       48,
	Poison:    `objs[30] = null;`,
	PostCalls: 1,
}

// A program that ends in a JavaScript error is swept like any other: the
// error is part of the observation, and every configuration and injected
// fault must raise the reference's error text.
func TestSweepProgramThatRaises(t *testing.T) {
	ref := Reference(raisingProgram)
	if !strings.Contains(ref.Err, "cannot read property") || len(ref.Results) != raisingProgram.Calls {
		t.Fatalf("reference: %d results, error %q", len(ref.Results), ref.Err)
	}
	rep, err := Sweep(raisingProgram, Config{Archs: vm.AllArchs, MaxTier: profile.TierFTL, CapacityPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("failure: %s", f)
	}
}

func TestSweepBaseArchHasNoTxSites(t *testing.T) {
	rep, err := Sweep(hotProgram, Config{Archs: []vm.Arch{vm.ArchBase}, CapacityPoints: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("failure: %s", f)
	}
	ar := rep.Archs[0]
	for _, s := range ar.Sites {
		if s.Key.Kind != machine.SiteCheck {
			t.Errorf("Base enumerated %v site %s", s.Key.Kind, s.Key)
		}
		if !s.HasSMP {
			t.Errorf("Base check site %s without SMP", s.Key)
		}
	}
}

func TestGenerateDeterministicAndRenders(t *testing.T) {
	a, b := Generate(42), Generate(42)
	if a.Render() != b.Render() || a.Poison != b.Poison {
		t.Fatal("Generate is not deterministic")
	}
	if len(a.ArrInit) != a.ArrLen {
		t.Fatalf("ArrInit has %d entries for ArrLen %d", len(a.ArrInit), a.ArrLen)
	}
	p := a.Program(40, 2, 12)
	ref := Reference(p)
	if ref.Err != "" {
		t.Fatalf("generated program errored: %s\n%s", ref.Err, p.Setup)
	}
}

func TestCapacityTargets(t *testing.T) {
	cases := []struct {
		w, n int
		want []int
	}{
		{10, 3, []int{1, 5, 10}},
		{10, 1, []int{1}},
		{2, 3, []int{1, 2}},
		{1, 3, []int{1}},
		{4, -1, []int{1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := capacityTargets(c.w, c.n)
		if len(got) != len(c.want) {
			t.Errorf("capacityTargets(%d,%d) = %v, want %v", c.w, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("capacityTargets(%d,%d) = %v, want %v", c.w, c.n, got, c.want)
				break
			}
		}
	}
}

func TestReduceListMinimizes(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e", "f", "g"}
	// Failure requires both "c" and "f" to be present.
	got := reduceList(items, func(cand []string) bool {
		hasC, hasF := false, false
		for _, s := range cand {
			if s == "c" {
				hasC = true
			}
			if s == "f" {
				hasF = true
			}
		}
		return hasC && hasF
	})
	if len(got) != 2 || got[0] != "c" || got[1] != "f" {
		t.Errorf("reduceList = %v, want [c f]", got)
	}
}

func TestCheckCountersRejectsLeaksAndNegatives(t *testing.T) {
	eng := newEngine(vm.ArchNoMap, profile.TierFTL)
	observe(eng.vm, hotProgram)
	c := eng.vm.Counters()
	if err := CheckCounters(c); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	bad := *c
	bad.TxBegins++
	if err := CheckCounters(&bad); err == nil {
		t.Error("transaction leak not flagged")
	}
	bad = *c
	bad.CyclesTM = -1
	if err := CheckCounters(&bad); err == nil {
		t.Error("negative counter not flagged")
	}
}
