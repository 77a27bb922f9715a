package oracle

import (
	"fmt"

	"nomap/internal/stats"
)

// CheckCounters validates the cycle/instruction accounting invariants after
// a (possibly fault-injected) run. Aborted-transaction work is discarded and
// re-attributed, which historically is where accounting bugs hide: a
// mis-ordered rollback can drive a counter negative or leak an open
// transaction.
func CheckCounters(c *stats.Counters) error {
	nonNeg := []struct {
		name string
		v    int64
	}{
		{"CyclesTM", c.CyclesTM},
		{"CyclesNonTM", c.CyclesNonTM},
		{"InterpOps", c.InterpOps},
		{"BaselineOps", c.BaselineOps},
		{"DFGCalls", c.DFGCalls},
		{"FTLCalls", c.FTLCalls},
		{"Deopts", c.Deopts},
		{"OSRExits", c.OSRExits},
		{"OSREntries", c.OSREntries},
		{"TxBegins", c.TxBegins},
		{"TxCommits", c.TxCommits},
		{"TxAborts", c.TxAborts},
		{"TxCapacityAborts", c.TxCapacityAborts},
		{"TxCheckAborts", c.TxCheckAborts},
		{"TxSOFAborts", c.TxSOFAborts},
		{"TxIrrevocableAborts", c.TxIrrevocableAborts},
		{"TxConflictAborts", c.TxConflictAborts},
		{"TxCallBlamedAborts", c.TxCallBlamedAborts},
		{"SharedOps", c.SharedOps},
		{"SharedTxRetries", c.SharedTxRetries},
		{"SharedBackoffs", c.SharedBackoffs},
		{"SharedFallbackAcquires", c.SharedFallbackAcquires},
		{"SharedRepromotions", c.SharedRepromotions},
		{"CyclesSquashed", c.CyclesSquashed},
		{"TxWriteBytesMax", c.TxWriteBytesMax},
		{"TxWriteBytesTotal", c.TxWriteBytesTotal},
		{"TxMaxAssoc", c.TxMaxAssoc},
		{"TxReadBytesMax", c.TxReadBytesMax},
		{"TxWriteLinesTotal", c.TxWriteLinesTotal},
		{"CodeCacheHits", c.CodeCacheHits},
		{"CodeCacheMisses", c.CodeCacheMisses},
		{"CodeCacheEvictions", c.CodeCacheEvictions},
		{"SnapshotRestores", c.SnapshotRestores},
		{"SnapshotRejects", c.SnapshotRejects},
	}
	for _, f := range nonNeg {
		if f.v < 0 {
			return fmt.Errorf("counter %s is negative: %d", f.name, f.v)
		}
	}
	for i, v := range c.Instr {
		if v < 0 {
			return fmt.Errorf("instruction class %v is negative: %d", stats.InstrClass(i), v)
		}
	}
	for i, v := range c.Checks {
		if v < 0 {
			return fmt.Errorf("check class %v count is negative: %d", stats.CheckClass(i), v)
		}
	}
	for i, v := range c.Compilations {
		if v < 0 {
			return fmt.Errorf("compilation count for tier %d is negative: %d", i, v)
		}
	}
	// Every transaction that begins must retire exactly once, by commit or
	// abort; anything else means a transaction leaked across a run.
	if c.TxBegins != c.TxCommits+c.TxAborts {
		return fmt.Errorf("transaction leak: %d begins vs %d commits + %d aborts",
			c.TxBegins, c.TxCommits, c.TxAborts)
	}
	// Every abort has exactly one cause; the per-cause ledger — conflict
	// aborts included — must partition the total with no unaccounted
	// remainder.
	if sub := c.TxCapacityAborts + c.TxCheckAborts + c.TxSOFAborts + c.TxIrrevocableAborts + c.TxConflictAborts; sub != c.TxAborts {
		return fmt.Errorf("abort sub-causes (%d) do not partition total aborts (%d)", sub, c.TxAborts)
	}
	// Callee blame (§V-C) is a property of a capacity abort.
	if c.TxCallBlamedAborts > c.TxCapacityAborts {
		return fmt.Errorf("call-blamed aborts (%d) exceed capacity aborts (%d)", c.TxCallBlamedAborts, c.TxCapacityAborts)
	}
	// A committed transaction adds 64 bytes per write line to both
	// footprint totals; an aborted one adds its lines only. Bytes beyond
	// that mean a finished transaction was counted in one and not the other.
	if c.TxWriteBytesTotal > 64*c.TxWriteLinesTotal {
		return fmt.Errorf("committed write bytes (%d) exceed 64 x finished write lines (%d lines)",
			c.TxWriteBytesTotal, c.TxWriteLinesTotal)
	}
	// Squashed cycles are a subset of in-transaction cycles, and the
	// per-cause breakdown must partition the total wasted work.
	if c.CyclesSquashed > c.CyclesTM {
		return fmt.Errorf("CyclesSquashed (%d) exceeds CyclesTM (%d)", c.CyclesSquashed, c.CyclesTM)
	}
	var squashedBy int64
	for i, v := range c.CyclesSquashedBy {
		if v < 0 {
			return fmt.Errorf("CyclesSquashedBy[%d] is negative: %d", i, v)
		}
		squashedBy += v
	}
	if squashedBy != c.CyclesSquashed {
		return fmt.Errorf("per-cause squashed cycles (%d) do not partition CyclesSquashed (%d)", squashedBy, c.CyclesSquashed)
	}
	return nil
}
