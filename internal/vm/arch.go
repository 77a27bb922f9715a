package vm

import "strings"

// Arch selects the architecture configuration evaluated in the paper
// (Table II). It controls how the FTL tier forms transactions and which
// check optimizations run.
type Arch uint8

const (
	// ArchBase is unmodified JavaScriptCore: no transactions, SMPs remain,
	// and optimizations honour SMP barriers.
	ArchBase Arch = iota
	// ArchNoMapS inserts transactions and replaces SMPs with aborts; code
	// optimizations then work across the former SMPs.
	ArchNoMapS
	// ArchNoMapB adds bounds-check hoisting/sinking on monotonic induction
	// variables.
	ArchNoMapB
	// ArchNoMap (the proposed design) additionally removes overflow checks
	// using the Sticky Overflow Flag.
	ArchNoMap
	// ArchNoMapBC is the unrealistic best case: every check inside a
	// transaction is removed.
	ArchNoMapBC
	// ArchNoMapRTM runs the NoMap_B transformation on Intel RTM rules:
	// smaller capacity, read tracking, slow commits, and no SOF.
	ArchNoMapRTM
)

// String returns the paper's name for the configuration.
func (a Arch) String() string {
	switch a {
	case ArchBase:
		return "Base"
	case ArchNoMapS:
		return "NoMap_S"
	case ArchNoMapB:
		return "NoMap_B"
	case ArchNoMap:
		return "NoMap"
	case ArchNoMapBC:
		return "NoMap_BC"
	case ArchNoMapRTM:
		return "NoMap_RTM"
	}
	return "Arch(?)"
}

// AllArchs lists the six evaluated configurations in the paper's bar order.
var AllArchs = []Arch{ArchBase, ArchNoMapS, ArchNoMapB, ArchNoMap, ArchNoMapBC, ArchNoMapRTM}

// ParseArch resolves a configuration by its paper name, case-insensitively
// ("NoMap_RTM", "nomap_rtm").
func ParseArch(name string) (Arch, bool) {
	for _, a := range AllArchs {
		if strings.EqualFold(a.String(), name) {
			return a, true
		}
	}
	return 0, false
}

// UsesTransactions reports whether the configuration wraps hot FTL loops in
// hardware transactions.
func (a Arch) UsesTransactions() bool { return a != ArchBase }

// CombinesBoundsChecks reports whether the bounds-check hoist/sink pass runs.
func (a Arch) CombinesBoundsChecks() bool {
	return a == ArchNoMapB || a == ArchNoMap || a == ArchNoMapBC || a == ArchNoMapRTM
}

// RemovesOverflowChecks reports whether the SOF-based overflow-check removal
// runs. RTM has no Sticky Overflow Flag (paper §VI-B), so it is excluded.
func (a Arch) RemovesOverflowChecks() bool { return a == ArchNoMap || a == ArchNoMapBC }

// RemovesAllChecks reports the unrealistic best-case configuration.
func (a Arch) RemovesAllChecks() bool { return a == ArchNoMapBC }

// HeavyweightHTM reports whether the Intel RTM rules apply.
func (a Arch) HeavyweightHTM() bool { return a == ArchNoMapRTM }
