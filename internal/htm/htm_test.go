package htm

import (
	"testing"
	"testing/quick"
)

func TestBeginCommit(t *testing.T) {
	s := New(ROTConfig())
	if s.InTx() {
		t.Fatal("no transaction should be open initially")
	}
	if !s.Begin("owner", "recover") {
		t.Fatal("first Begin must open the outermost transaction")
	}
	if !s.InTx() {
		t.Fatal("transaction should be open")
	}
	if s.Current().Owner != "owner" || s.Current().Recover != "recover" {
		t.Fatal("owner/recover not recorded")
	}
	outer, err := s.Commit()
	if err != nil || !outer {
		t.Fatalf("Commit = %v, %v", outer, err)
	}
	if s.InTx() {
		t.Fatal("transaction should be closed")
	}
	if s.ctrs.TxBegins != 1 || s.ctrs.TxCommits != 1 {
		t.Errorf("begins=%d commits=%d", s.ctrs.TxBegins, s.ctrs.TxCommits)
	}
}

func TestFlattenedNesting(t *testing.T) {
	s := New(ROTConfig())
	if !s.Begin(1, nil) {
		t.Fatal("outermost")
	}
	if s.Begin(2, nil) {
		t.Fatal("nested Begin must not open a new transaction")
	}
	if s.Current().Owner != 1 {
		t.Fatal("owner must stay the outermost frame")
	}
	if outer, _ := s.Commit(); outer {
		t.Fatal("inner commit must not retire the transaction")
	}
	if !s.InTx() {
		t.Fatal("still open after inner commit")
	}
	if outer, _ := s.Commit(); !outer {
		t.Fatal("outer commit must retire")
	}
	if s.ctrs.TxBegins != 1 || s.ctrs.TxCommits != 1 {
		t.Errorf("flattening miscounted: begins=%d commits=%d", s.ctrs.TxBegins, s.ctrs.TxCommits)
	}
}

func TestUndoLogRollsBackInReverse(t *testing.T) {
	s := New(ROTConfig())
	s.Begin(1, nil)
	var log []int
	s.RecordWrite(0, 8, func() { log = append(log, 1) })
	s.RecordWrite(64, 8, func() { log = append(log, 2) })
	s.RecordWrite(128, 8, func() { log = append(log, 3) })
	if err := s.Abort(AbortCheck); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0] != 3 || log[1] != 2 || log[2] != 1 {
		t.Errorf("undo order = %v, want [3 2 1]", log)
	}
	if s.InTx() {
		t.Fatal("aborted transaction must be closed")
	}
	if s.ctrs.TxCheckAborts != 1 {
		t.Error("abort cause not recorded")
	}
}

func TestAbortRollsBackNest(t *testing.T) {
	s := New(ROTConfig())
	s.Begin(1, nil)
	s.Begin(2, nil) // flattened
	ran := false
	s.RecordWrite(0, 8, func() { ran = true })
	if err := s.Abort(AbortCapacity); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("undo must run for the whole nest")
	}
	if s.InTx() {
		t.Error("whole nest must be gone")
	}
}

func TestWriteCapacityPerSet(t *testing.T) {
	cfg := ROTConfig()
	cfg.WriteSets = 4
	cfg.WriteWays = 2
	s := New(cfg)
	s.Begin(1, nil)
	// Lines 0, 4, 8 all map to set 0 (line % 4); ways = 2.
	if err := s.RecordWrite(0*64, 8, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordWrite(4*64, 8, func() {}); err != nil {
		t.Fatal(err)
	}
	err := s.RecordWrite(8*64, 8, func() {})
	if err == nil {
		t.Fatal("third line in a 2-way set must overflow")
	}
	ce, ok := err.(*CapacityError)
	if !ok || !ce.Write || ce.Set != 0 {
		t.Errorf("error = %#v", err)
	}
	// Different set still fits.
	if err := s.RecordWrite(1*64, 8, func() {}); err != nil {
		t.Errorf("set 1 should fit: %v", err)
	}
}

func TestReadTrackingOnlyRTM(t *testing.T) {
	rot := New(ROTConfig())
	rot.Begin(1, nil)
	for i := 0; i < 100000; i += 64 {
		if err := rot.RecordRead(uint64(i), 8); err != nil {
			t.Fatalf("ROT must not track reads: %v", err)
		}
	}
	rot.Commit()

	cfg := RTMConfig()
	cfg.ReadSets = 2
	cfg.ReadWays = 1
	rtm := New(cfg)
	rtm.Begin(1, nil)
	if err := rtm.RecordRead(0, 8); err != nil {
		t.Fatal(err)
	}
	if err := rtm.RecordRead(2*64, 8); err == nil {
		t.Fatal("RTM read set must overflow")
	}
}

func TestMultiLineWrite(t *testing.T) {
	s := New(ROTConfig())
	s.Begin(1, nil)
	// A 16-byte write straddling a line boundary occupies two lines.
	if err := s.RecordWrite(56, 16, func() {}); err != nil {
		t.Fatal(err)
	}
	if got := s.Current().WriteBytes(); got != 128 {
		t.Errorf("WriteBytes = %d, want 128 (two lines)", got)
	}
}

func TestSOF(t *testing.T) {
	s := New(ROTConfig())
	if !s.Config().HasSOF {
		t.Fatal("ROT has the SOF extension")
	}
	if RTMConfig().HasSOF {
		t.Fatal("RTM has no SOF (paper §VI-B)")
	}
	s.Begin(1, nil)
	if s.SOF() {
		t.Fatal("XBegin clears the SOF")
	}
	s.SetSOF()
	if !s.SOF() {
		t.Fatal("SOF should be set")
	}
	s.Abort(AbortSOF)
	if s.SOF() {
		t.Fatal("no transaction, no SOF")
	}
}

func TestFootprintStats(t *testing.T) {
	s := New(ROTConfig())
	s.Begin(1, nil)
	for i := 0; i < 10; i++ {
		s.RecordWrite(uint64(i*64), 8, func() {})
	}
	tx := s.Current()
	if tx.WriteBytes() != 640 {
		t.Errorf("WriteBytes = %d", tx.WriteBytes())
	}
	if tx.MaxWriteAssoc() != 1 {
		t.Errorf("MaxWriteAssoc = %d, want 1 (10 distinct sets)", tx.MaxWriteAssoc())
	}
	s.Commit()
	if s.ctrs.TxWriteBytesMax != 640 || s.ctrs.TxWriteBytesTotal != 640 {
		t.Errorf("TxWriteBytesMax = %d, TxWriteBytesTotal = %d, want 640", s.ctrs.TxWriteBytesMax, s.ctrs.TxWriteBytesTotal)
	}
}

func TestErrorsWithoutTransaction(t *testing.T) {
	s := New(ROTConfig())
	if _, err := s.Commit(); err != ErrNoTransaction {
		t.Error("Commit without tx must fail")
	}
	if err := s.Abort(AbortCheck); err != ErrNoTransaction {
		t.Error("Abort without tx must fail")
	}
	if err := s.RecordWrite(0, 8, func() {}); err != ErrNoTransaction {
		t.Error("RecordWrite without tx must fail")
	}
}

func TestAbortCauseStrings(t *testing.T) {
	for c, want := range map[AbortCause]string{
		AbortCheck: "check", AbortCapacity: "capacity",
		AbortSOF: "sticky-overflow", AbortIrrevocable: "irrevocable",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

// Property: for any sequence of line writes (bounded so the 512x8 write set
// cannot overflow), WriteBytes equals 64 bytes per distinct line, and the
// undo log length equals the number of writes.
func TestQuickWriteSetAccounting(t *testing.T) {
	cfg := ROTConfig()
	f := func(lines []uint8) bool {
		s := New(cfg)
		s.Begin(1, nil)
		distinct := map[uint64]bool{}
		undos := 0
		for _, l := range lines {
			if err := s.RecordWrite(uint64(l)*64, 8, func() { undos++ }); err != nil {
				return false
			}
			distinct[uint64(l)] = true
		}
		if s.Current().WriteBytes() != int64(len(distinct))*64 {
			return false
		}
		s.Abort(AbortCheck)
		return undos == len(lines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// probeLines is the per-transaction footprint of the steady-state tests and
// benchmark below; it fits the write and read sets of both configurations.
const probeLines = 256

// steadyTx runs one transaction over probeLines distinct lines (plus as many
// reads under RTM), recording writes the way the machine does — with no undo
// closure — and retires it by commit or abort.
func steadyTx(tb testing.TB, s *System, commit bool) {
	s.Begin(nil, nil)
	for l := uint64(0); l < probeLines; l++ {
		if err := s.RecordWrite(l*64, 8, nil); err != nil {
			tb.Fatal(err)
		}
	}
	if s.Config().ReadSets > 0 {
		for l := uint64(0); l < probeLines; l++ {
			if err := s.RecordRead((probeLines+l)*64, 8); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var err error
	if commit {
		_, err = s.Commit()
	} else {
		err = s.Abort(AbortCheck)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// After one warm-up transaction the System reuses its Txn: a transaction of
// any footprint costs the host no allocation, however it retires.
func TestSteadyStateTransactionsDoNotAllocate(t *testing.T) {
	for name, cfg := range map[string]Config{"ROT": ROTConfig(), "RTM": RTMConfig()} {
		for _, commit := range []bool{true, false} {
			s := New(cfg)
			steadyTx(t, s, commit)
			if n := testing.AllocsPerRun(20, func() { steadyTx(t, s, commit) }); n != 0 {
				t.Errorf("%s commit=%v: %v allocs per transaction, want 0", name, commit, n)
			}
		}
	}
}

// A retired transaction's footprint stays readable until the next outermost
// Begin (the machine reports WriteBytes after Commit); that Begin starts from
// an empty footprint, a clear SOF and the new owner.
func TestTxnReuseResetsOnBegin(t *testing.T) {
	s := New(RTMConfig())
	s.Begin("first", nil)
	s.RecordWrite(0, 8, nil)
	s.RecordRead(64, 8)
	s.SetSOF()
	first := s.Current()
	s.Commit()
	if first.WriteBytes() != 64 || first.ReadBytes() != 64 {
		t.Fatalf("footprint after commit = %d/%d bytes, want 64/64", first.WriteBytes(), first.ReadBytes())
	}
	s.Begin("second", nil)
	cur := s.Current()
	if cur.Owner != "second" || cur.Depth() != 1 {
		t.Errorf("owner=%v depth=%d after reuse", cur.Owner, cur.Depth())
	}
	if cur.WriteBytes() != 0 || cur.ReadBytes() != 0 || cur.MaxWriteAssoc() != 0 || s.SOF() {
		t.Errorf("reused transaction not reset: write=%d read=%d assoc=%d sof=%v",
			cur.WriteBytes(), cur.ReadBytes(), cur.MaxWriteAssoc(), s.SOF())
	}
	runs := 0
	s.RecordWrite(0, 8, func() { runs++ })
	s.Abort(AbortCheck)
	s.Begin(nil, nil)
	s.Abort(AbortCheck)
	if runs != 1 {
		t.Errorf("undo ran %d times, want once: in its own transaction, not the next", runs)
	}
}

// Writes recorded with a nil undo (callers that log old state themselves)
// leave the registered actions' reverse order intact.
func TestNilUndoInterleaved(t *testing.T) {
	s := New(ROTConfig())
	for round := 0; round < 2; round++ { // the second round runs on the reused Txn
		s.Begin(nil, nil)
		var log []int
		s.RecordWrite(0, 8, nil)
		s.RecordWrite(64, 8, func() { log = append(log, 1) })
		s.RecordWrite(128, 8, nil)
		s.RecordWrite(192, 8, nil)
		s.RecordWrite(256, 8, func() { log = append(log, 2) })
		s.RecordWrite(320, 8, func() { log = append(log, 3) })
		s.RecordWrite(384, 8, nil)
		if got := s.Current().WriteLines(); got != 7 {
			t.Fatalf("round %d: write lines = %d, want 7", round, got)
		}
		if err := s.Abort(AbortCheck); err != nil {
			t.Fatal(err)
		}
		if len(log) != 3 || log[0] != 3 || log[1] != 2 || log[2] != 1 {
			t.Errorf("round %d: undo order = %v, want [3 2 1]", round, log)
		}
	}
}

// BenchmarkTxnWriteCommit is the HTM model's steady-state bookkeeping cost:
// one warm transaction of probeLines distinct-line writes, committed.
func BenchmarkTxnWriteCommit(b *testing.B) {
	s := New(ROTConfig())
	steadyTx(b, s, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyTx(b, s, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probeLines), "ns/write")
}
