package stats

import (
	"reflect"
	"testing"
)

func TestAddInstrAndTotals(t *testing.T) {
	var c Counters
	c.AddInstr(NoFTL, 10)
	c.AddInstr(NoTM, 20)
	c.AddInstr(TMUnopt, 30)
	c.AddInstr(TMOpt, 40)
	if c.TotalInstr() != 100 {
		t.Errorf("TotalInstr = %d", c.TotalInstr())
	}
	if c.Instr[TMOpt] != 40 {
		t.Errorf("TMOpt = %d", c.Instr[TMOpt])
	}
}

func TestAddCyclesSplit(t *testing.T) {
	var c Counters
	c.AddCycles(7, true)
	c.AddCycles(5, false)
	if c.CyclesTM != 7 || c.CyclesNonTM != 5 || c.TotalCycles() != 12 {
		t.Errorf("cycles: tm=%d nontm=%d", c.CyclesTM, c.CyclesNonTM)
	}
}

func TestChecks(t *testing.T) {
	var c Counters
	c.AddCheck(CheckBounds)
	c.AddCheck(CheckBounds)
	c.AddCheck(CheckOverflow)
	if c.Checks[CheckBounds] != 2 || c.TotalChecks() != 3 {
		t.Errorf("checks = %v", c.Checks)
	}
}

func TestAddMergesAndMaxes(t *testing.T) {
	a := Counters{TxWriteBytesMax: 100, TxMaxAssoc: 2}
	b := Counters{TxWriteBytesMax: 50, TxMaxAssoc: 5}
	a.AddInstr(NoFTL, 1)
	b.AddInstr(NoFTL, 2)
	a.TxCommits, b.TxCommits = 3, 4
	a.Add(&b)
	if a.Instr[NoFTL] != 3 {
		t.Errorf("summed instr = %d", a.Instr[NoFTL])
	}
	if a.TxCommits != 7 {
		t.Errorf("summed commits = %d", a.TxCommits)
	}
	if a.TxWriteBytesMax != 100 {
		t.Errorf("max footprint = %d (must take max, not sum)", a.TxWriteBytesMax)
	}
	if a.TxMaxAssoc != 5 {
		t.Errorf("max assoc = %d", a.TxMaxAssoc)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.AddInstr(TMOpt, 5)
	c.Deopts = 9
	c.Reset()
	if c.TotalInstr() != 0 || c.Deopts != 0 {
		t.Error("reset must zero everything")
	}
}

func TestLabels(t *testing.T) {
	if NoFTL.String() != "NoFTL" || TMOpt.String() != "TMOpt" {
		t.Error("instruction class labels wrong")
	}
	if CheckBounds.String() != "Bounds" || CheckOther.String() != "Other" {
		t.Error("check class labels wrong")
	}
}

// Merge must aggregate per-isolate counters without mutating its inputs —
// the pool-level rollup the serving layer reports.
func TestMergeAggregatesWithoutAliasing(t *testing.T) {
	a := &Counters{TxCommits: 3, CodeCacheHits: 2, SnapshotRestores: 1, TxWriteBytesMax: 10}
	b := &Counters{TxCommits: 4, CodeCacheMisses: 5, TxWriteBytesMax: 30}
	a.AddInstr(TMOpt, 7)
	b.AddInstr(TMOpt, 11)

	total := Merge(a, b)
	if total.TxCommits != 7 || total.CodeCacheHits != 2 || total.CodeCacheMisses != 5 ||
		total.SnapshotRestores != 1 || total.Instr[TMOpt] != 18 {
		t.Errorf("merge totals wrong: %+v", total)
	}
	if total.TxWriteBytesMax != 30 {
		t.Errorf("merge must take max of footprint maxima, got %d", total.TxWriteBytesMax)
	}
	// Inputs must be untouched (no aliasing into the merged value).
	if a.TxCommits != 3 || b.TxCommits != 4 || a.Instr[TMOpt] != 7 {
		t.Error("Merge mutated its inputs")
	}
	// And mutating the result must not reach back into the parts.
	total.TxCommits = 100
	total.Instr[TMOpt] = 99
	if a.TxCommits != 3 || b.Instr[TMOpt] != 11 {
		t.Error("merged value aliases an input")
	}
	if m := Merge(); m.TotalInstr() != 0 || m.TxCommits != 0 {
		t.Error("empty merge must be zero")
	}
}

// The serving-layer counters must participate in Add and Reset like every
// other counter.
func TestCodeCacheCountersAddAndReset(t *testing.T) {
	var c Counters
	c.CodeCacheHits, c.CodeCacheMisses, c.CodeCacheEvictions, c.SnapshotRestores = 1, 2, 3, 4
	var d Counters
	d.Add(&c)
	if d.CodeCacheHits != 1 || d.CodeCacheMisses != 2 || d.CodeCacheEvictions != 3 || d.SnapshotRestores != 4 {
		t.Errorf("Add dropped serving counters: %+v", d)
	}
	d.Reset()
	if d.CodeCacheHits != 0 || d.SnapshotRestores != 0 {
		t.Error("Reset must zero serving counters")
	}
}

// Add (and so Merge, which the pool and the shared executor total ledgers
// with) must merge every exported field of Counters: the footprint maxima by
// maximum, everything else by sum. Its field list is kept by hand; this walks
// the struct so a new counter Add forgets fails here.
func TestAddMergesEveryField(t *testing.T) {
	maxFields := map[string]bool{"TxWriteBytesMax": true, "TxReadBytesMax": true, "TxMaxAssoc": true}
	var a, b Counters
	fill := func(c *Counters, n int64) {
		v := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			f := v.Field(i)
			if f.Kind() == reflect.Array {
				for j := 0; j < f.Len(); j++ {
					f.Index(j).SetInt(n)
				}
			} else {
				f.SetInt(n)
			}
		}
	}
	fill(&a, 5)
	fill(&b, 2)
	a.Add(&b)
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		want := int64(7)
		if maxFields[sf.Name] {
			want = 5
		}
		f := v.Field(i)
		if f.Kind() != reflect.Array {
			if got := f.Int(); got != want {
				t.Errorf("%s = %d after Add, want %d", sf.Name, got, want)
			}
			continue
		}
		for j := 0; j < f.Len(); j++ {
			if got := f.Index(j).Int(); got != want {
				t.Errorf("%s[%d] = %d after Add, want %d", sf.Name, j, got, want)
			}
		}
	}
}
