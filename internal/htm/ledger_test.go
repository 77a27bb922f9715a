package htm

import (
	"testing"

	"nomap/internal/stats"
)

// causeCounts returns the per-cause abort counters indexed by AbortCause.
func causeCounts(c *stats.Counters) [NumAbortCauses]int64 {
	return [NumAbortCauses]int64{c.TxCheckAborts, c.TxCapacityAborts, c.TxSOFAborts,
		c.TxIrrevocableAborts, c.TxConflictAborts}
}

// ledger is the part of stats.Counters a System writes.
type ledger struct {
	begins, commits, aborts  int64
	causes                   [NumAbortCauses]int64
	writeBytes, lines        int64
	writeMax, readMax, assoc int64
	squashed                 int64
	squashedBy               [NumAbortCauses]int64
	cyclesTM                 int64
}

// ledgerStep is one step of TestLedger: what it does to the System and how
// the expected ledger moves.
type ledgerStep struct {
	name   string
	do     func(t *testing.T)
	expect func(w *ledger)
}

func ledgerOf(c *stats.Counters) ledger {
	return ledger{
		begins: c.TxBegins, commits: c.TxCommits, aborts: c.TxAborts,
		causes:     causeCounts(c),
		writeBytes: c.TxWriteBytesTotal, lines: c.TxWriteLinesTotal,
		writeMax: c.TxWriteBytesMax, readMax: c.TxReadBytesMax, assoc: c.TxMaxAssoc,
		squashed: c.CyclesSquashed, squashedBy: c.CyclesSquashedBy,
		cyclesTM: c.CyclesTM,
	}
}

// TestLedger walks one System through every way a transaction opens and
// finishes and checks, after each step, exactly what it counted into its
// owner's counters: an outermost Begin counts a begin, an outermost Commit
// the commit, its bytes, lines and maxima and retires its cycles, and an
// Abort the abort under its cause, its lines and maxima, and squashes its
// cycles under that cause.
func TestLedger(t *testing.T) {
	cfg := RTMConfig() // tracks reads, so the read maximum moves too
	sets := uint64(cfg.WriteSets)
	var c stats.Counters
	s := New(cfg)
	s.CountInto(&c)

	// writeSet0 writes n distinct lines that all map to write set 0.
	writeSet0 := func(t *testing.T, n int) {
		for i := 0; i < n; i++ {
			if err := s.RecordWrite(uint64(i)*sets*64, 8, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want ledger
	steps := []ledgerStep{
		{"begin", func(t *testing.T) {
			mustBegin(t, s)
			c.AddCycles(10, true)
			writeSet0(t, 2)
			if err := s.RecordRead(1000*64, 8); err != nil {
				t.Fatal(err)
			}
		}, func(w *ledger) { w.begins++; w.cyclesTM += 10 }},
		{"nested begin", func(t *testing.T) {
			if s.Begin(nil, nil) {
				t.Fatal("nested Begin opened a transaction")
			}
			c.AddCycles(5, true)
		}, func(w *ledger) { w.cyclesTM += 5 }},
		{"inner commit", func(t *testing.T) {
			if outer, err := s.Commit(); outer || err != nil {
				t.Fatalf("inner Commit = %v, %v", outer, err)
			}
		}, func(w *ledger) {}},
		{"outer commit", func(t *testing.T) {
			if outer, err := s.Commit(); !outer || err != nil {
				t.Fatalf("outer Commit = %v, %v", outer, err)
			}
			c.AddCycles(3, false)
		}, func(w *ledger) {
			w.commits++
			w.writeBytes += 128
			w.lines += 2
			w.writeMax, w.readMax, w.assoc = 128, 64, 2
		}},
	}
	// One abort per cause, cause k writing k+1 lines into one set: the
	// aborted footprints raise the maxima past the committed one.
	for k := AbortCause(0); k < NumAbortCauses; k++ {
		cycles := int64(k+1) * 100
		steps = append(steps, ledgerStep{"abort " + k.String(), func(t *testing.T) {
			mustBegin(t, s)
			c.AddCycles(cycles, true)
			writeSet0(t, int(k)+1)
			if err := s.Abort(k); err != nil {
				t.Fatal(err)
			}
		}, func(w *ledger) {
			w.begins++
			w.aborts++
			w.causes[k]++
			w.lines += int64(k) + 1
			w.writeMax = max(w.writeMax, (int64(k)+1)*64)
			w.assoc = max(w.assoc, int64(k)+1)
			w.cyclesTM += cycles
			w.squashed += cycles
			w.squashedBy[k] += cycles
		}})
	}
	steps = append(steps, []ledgerStep{
		// The tile pattern: commit the footprint so far and re-begin at once.
		// The first half's cycles retire; only the second half's squash.
		{"tile commit and re-begin", func(t *testing.T) {
			mustBegin(t, s)
			c.AddCycles(7, true)
			writeSet0(t, 1)
			if outer, err := s.Commit(); !outer || err != nil {
				t.Fatalf("tile Commit = %v, %v", outer, err)
			}
			mustBegin(t, s)
			c.AddCycles(3, true)
		}, func(w *ledger) {
			w.begins += 2
			w.commits++
			w.writeBytes += 64
			w.lines++
			w.cyclesTM += 10
		}},
		{"abort after tile", func(t *testing.T) {
			if err := s.Abort(AbortCheck); err != nil {
				t.Fatal(err)
			}
		}, func(w *ledger) {
			w.aborts++
			w.causes[AbortCheck]++
			w.squashed += 3
			w.squashedBy[AbortCheck] += 3
		}},
		// Reset drops an open transaction: its begin stays counted, and
		// nothing else is — no commit, no abort, no footprint.
		{"reset", func(t *testing.T) {
			mustBegin(t, s)
			writeSet0(t, 8)
			s.Reset()
			if s.InTx() {
				t.Fatal("Reset left the transaction open")
			}
		}, func(w *ledger) { w.begins++ }},
	}...)

	for _, st := range steps {
		st.do(t)
		st.expect(&want)
		if got := ledgerOf(&c); got != want {
			t.Fatalf("after %s:\n got %+v\nwant %+v", st.name, got, want)
		}
	}
}
