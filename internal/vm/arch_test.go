package vm

import (
	"strings"
	"testing"
)

// The six configurations are the paper's Table II; their names, bar order,
// and predicate matrix are load-bearing for every figure reproduction, so
// they are pinned here exactly.

func TestArchNames(t *testing.T) {
	want := map[Arch]string{
		ArchBase:     "Base",
		ArchNoMapS:   "NoMap_S",
		ArchNoMapB:   "NoMap_B",
		ArchNoMap:    "NoMap",
		ArchNoMapBC:  "NoMap_BC",
		ArchNoMapRTM: "NoMap_RTM",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), name)
		}
	}
	if got := Arch(99).String(); got != "Arch(?)" {
		t.Errorf("out-of-range arch renders %q", got)
	}
}

// Both spellings the commands have accepted (the paper's and lower case)
// resolve; anything else is refused rather than defaulting to Base.
func TestParseArch(t *testing.T) {
	for _, a := range AllArchs {
		for _, name := range []string{a.String(), strings.ToLower(a.String()), strings.ToUpper(a.String())} {
			if got, ok := ParseArch(name); !ok || got != a {
				t.Errorf("ParseArch(%q) = %v, %v; want %v", name, got, ok, a)
			}
		}
	}
	for _, name := range []string{"", "nomap_", "NoMap RTM", "Arch(?)"} {
		if got, ok := ParseArch(name); ok {
			t.Errorf("ParseArch(%q) accepted as %v", name, got)
		}
	}
}

func TestAllArchsOrder(t *testing.T) {
	want := []Arch{ArchBase, ArchNoMapS, ArchNoMapB, ArchNoMap, ArchNoMapBC, ArchNoMapRTM}
	if len(AllArchs) != len(want) {
		t.Fatalf("AllArchs has %d entries, want %d", len(AllArchs), len(want))
	}
	for i, a := range want {
		if AllArchs[i] != a {
			t.Errorf("AllArchs[%d] = %v, want %v", i, AllArchs[i], a)
		}
	}
}

func TestArchPredicateMatrix(t *testing.T) {
	cases := []struct {
		arch                                   Arch
		tx, bounds, overflow, all, heavyweight bool
	}{
		{ArchBase, false, false, false, false, false},
		{ArchNoMapS, true, false, false, false, false},
		{ArchNoMapB, true, true, false, false, false},
		{ArchNoMap, true, true, true, false, false},
		{ArchNoMapBC, true, true, true, true, false},
		{ArchNoMapRTM, true, true, false, false, true},
	}
	for _, c := range cases {
		if got := c.arch.UsesTransactions(); got != c.tx {
			t.Errorf("%v.UsesTransactions() = %v, want %v", c.arch, got, c.tx)
		}
		if got := c.arch.CombinesBoundsChecks(); got != c.bounds {
			t.Errorf("%v.CombinesBoundsChecks() = %v, want %v", c.arch, got, c.bounds)
		}
		if got := c.arch.RemovesOverflowChecks(); got != c.overflow {
			t.Errorf("%v.RemovesOverflowChecks() = %v, want %v", c.arch, got, c.overflow)
		}
		if got := c.arch.RemovesAllChecks(); got != c.all {
			t.Errorf("%v.RemovesAllChecks() = %v, want %v", c.arch, got, c.all)
		}
		if got := c.arch.HeavyweightHTM(); got != c.heavyweight {
			t.Errorf("%v.HeavyweightHTM() = %v, want %v", c.arch, got, c.heavyweight)
		}
	}
}
