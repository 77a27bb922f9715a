package htm

import (
	"errors"
	"testing"
)

// geometries returns the two hardware geometries of Table II; every conflict
// test runs against both, because conflict detection must be independent of
// capacity geometry (coherence-based) while still honouring each geometry's
// line size.
func geometries() map[string]Config {
	return map[string]Config{
		"ROT": ROTConfig(),
		"RTM": RTMConfig(),
	}
}

// line returns an address on cache line n for the given config.
func line(cfg Config, n uint64) uint64 { return n * uint64(cfg.LineSize) }

func mustBegin(t *testing.T, s *System) {
	t.Helper()
	if !s.Begin(nil, nil) {
		t.Fatal("Begin did not open an outermost transaction")
	}
}

// TestAbortCauseTaxonomy pins the exhaustive cause-code enumeration: every
// cause has a distinct name, the conflict cause is part of the ledger, and
// aborting under each cause lands in exactly its own slot — no conflation of
// non-capacity causes (the bug this taxonomy split fixes).
func TestAbortCauseTaxonomy(t *testing.T) {
	want := map[AbortCause]string{
		AbortCheck:       "check",
		AbortCapacity:    "capacity",
		AbortSOF:         "sticky-overflow",
		AbortIrrevocable: "irrevocable",
		AbortConflict:    "conflict",
	}
	if len(want) != int(NumAbortCauses) {
		t.Fatalf("taxonomy covers %d causes, NumAbortCauses = %d", len(want), NumAbortCauses)
	}
	seen := map[string]AbortCause{}
	for c, name := range want {
		got := c.String()
		if got != name {
			t.Errorf("cause %d: String() = %q, want %q", c, got, name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("cause name %q shared by %d and %d", got, prev, c)
		}
		seen[got] = c
	}

	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			s := New(cfg)
			for c := AbortCause(0); c < NumAbortCauses; c++ {
				mustBegin(t, s)
				if err := s.Abort(c); err != nil {
					t.Fatalf("abort(%v): %v", c, err)
				}
			}
			var total int64
			for c, n := range causeCounts(s.ctrs) {
				if n != 1 {
					t.Errorf("%v aborts = %d, want exactly 1", AbortCause(c), n)
				}
				total += n
			}
			if total != s.ctrs.TxAborts {
				t.Errorf("per-cause ledger (%d) does not partition TxAborts (%d)", total, s.ctrs.TxAborts)
			}
			if s.ctrs.TxBegins != int64(NumAbortCauses) || s.ctrs.TxCommits != 0 {
				t.Errorf("begins=%d commits=%d, want %d/0", s.ctrs.TxBegins, s.ctrs.TxCommits, NumAbortCauses)
			}
		})
	}
}

// TestConflictWriteWrite checks write/write conflicts: the second context to
// write a line aborts (requester-loses) with writer attribution and the
// first context's identity.
func TestConflictWriteWrite(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			d := NewDomain()
			a, b := New(cfg), New(cfg)
			a.AttachDomain(d, 0)
			b.AttachDomain(d, 1)
			d.Lock()
			defer d.Unlock()

			mustBegin(t, a)
			mustBegin(t, b)
			if err := a.RecordWrite(line(cfg, 7), 8, func() {}); err != nil {
				t.Fatalf("first write: %v", err)
			}
			err := b.RecordWrite(line(cfg, 7), 8, func() {})
			var ce *ConflictError
			if !errors.As(err, &ce) {
				t.Fatalf("second write: got %v, want ConflictError", err)
			}
			if !ce.Write || ce.Attr != AttrWriter || ce.With != 0 || ce.Line != 7 {
				t.Errorf("conflict = %+v, want write/writer/with=0/line=7", ce)
			}
		})
	}
}

// TestConflictReadWrite checks both directions of read/write conflicts and
// their attribution: writing a line another context has read attributes the
// kill to the reader; reading a line another context has written attributes
// it to the writer. Under ROT the reader's footprint is conflict-tracked even
// though the geometry buffers no read set.
func TestConflictReadWrite(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			d := NewDomain()
			a, b := New(cfg), New(cfg)
			a.AttachDomain(d, 0)
			b.AttachDomain(d, 1)
			d.Lock()
			defer d.Unlock()

			// Reader first, writer collides: reader attribution.
			mustBegin(t, a)
			mustBegin(t, b)
			if err := a.RecordRead(line(cfg, 3), 8); err != nil {
				t.Fatalf("read: %v", err)
			}
			var ce *ConflictError
			if err := b.RecordWrite(line(cfg, 3), 8, func() {}); !errors.As(err, &ce) {
				t.Fatalf("write after remote read: got %v, want ConflictError", err)
			} else if ce.Attr != AttrReader || ce.With != 0 {
				t.Errorf("conflict = %+v, want reader attribution with=0", ce)
			}
			if err := b.Abort(AbortConflict); err != nil {
				t.Fatal(err)
			}
			if err := a.Abort(AbortConflict); err != nil {
				t.Fatal(err)
			}

			// Writer first, reader collides: writer attribution.
			mustBegin(t, a)
			mustBegin(t, b)
			if err := a.RecordWrite(line(cfg, 4), 8, func() {}); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := b.RecordRead(line(cfg, 4), 8); !errors.As(err, &ce) {
				t.Fatalf("read after remote write: got %v, want ConflictError", err)
			} else if ce.Write || ce.Attr != AttrWriter || ce.With != 0 {
				t.Errorf("conflict = %+v, want load/writer attribution with=0", ce)
			}
		})
	}
}

// TestReadReadNoConflict checks that shared readers never conflict, at any
// count, and that commit releases the lines for later writers.
func TestReadReadNoConflict(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			d := NewDomain()
			systems := make([]*System, 4)
			for i := range systems {
				systems[i] = New(cfg)
				systems[i].AttachDomain(d, i)
			}
			d.Lock()
			defer d.Unlock()
			for _, s := range systems {
				mustBegin(t, s)
				if err := s.RecordRead(line(cfg, 9), 8); err != nil {
					t.Fatalf("shared read: %v", err)
				}
			}
			for _, s := range systems {
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// All readers retired: a writer must now get the line.
			mustBegin(t, systems[0])
			if err := systems[0].RecordWrite(line(cfg, 9), 8, func() {}); err != nil {
				t.Fatalf("write after readers retired: %v", err)
			}
		})
	}
}

// TestConflictLineGranularity checks that detection is keyed by cache line
// under each geometry's line size: two accesses in the same line conflict
// regardless of byte offset; adjacent lines never do.
func TestConflictLineGranularity(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			d := NewDomain()
			a, b := New(cfg), New(cfg)
			a.AttachDomain(d, 0)
			b.AttachDomain(d, 1)
			d.Lock()
			defer d.Unlock()

			mustBegin(t, a)
			mustBegin(t, b)
			base := line(cfg, 11)
			if err := a.RecordWrite(base, 8, func() {}); err != nil {
				t.Fatal(err)
			}
			// Same line, last word: false sharing is a real conflict.
			var ce *ConflictError
			if err := b.RecordWrite(base+uint64(cfg.LineSize)-8, 8, func() {}); !errors.As(err, &ce) {
				t.Fatalf("same-line offset write: got %v, want ConflictError", err)
			}
			// Next line: no conflict.
			if err := b.RecordWrite(base+uint64(cfg.LineSize), 8, func() {}); err != nil {
				t.Fatalf("adjacent-line write: %v", err)
			}
		})
	}
}

// TestConflictReleaseOnAbortAndCommit checks the ownership table drains on
// both retirement paths; a leaked line would conflict forever.
func TestConflictReleaseOnAbortAndCommit(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			d := NewDomain()
			a, b := New(cfg), New(cfg)
			a.AttachDomain(d, 0)
			b.AttachDomain(d, 1)
			d.Lock()
			defer d.Unlock()

			for _, retire := range []string{"commit", "abort"} {
				mustBegin(t, a)
				if err := a.RecordWrite(line(cfg, 5), 8, func() {}); err != nil {
					t.Fatal(err)
				}
				if err := a.RecordRead(line(cfg, 6), 8); err != nil {
					t.Fatal(err)
				}
				if retire == "commit" {
					if _, err := a.Commit(); err != nil {
						t.Fatal(err)
					}
				} else if err := a.Abort(AbortConflict); err != nil {
					t.Fatal(err)
				}
				mustBegin(t, b)
				if err := b.RecordWrite(line(cfg, 5), 8, func() {}); err != nil {
					t.Fatalf("after %s, write-line still owned: %v", retire, err)
				}
				if err := b.RecordWrite(line(cfg, 6), 8, func() {}); err != nil {
					t.Fatalf("after %s, read-line still owned: %v", retire, err)
				}
				if err := b.Abort(AbortConflict); err != nil {
					t.Fatal(err)
				}
			}
			if len(d.lines) != 0 {
				t.Errorf("ownership table leaked %d lines", len(d.lines))
			}
		})
	}
}

// TestFallbackLockSubscription checks the lock-elision contract: a
// transaction touching shared state while the software fallback lock is held
// dies with lock attribution, and the lock is mutually exclusive.
func TestFallbackLockSubscription(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			d := NewDomain()
			a, b := New(cfg), New(cfg)
			a.AttachDomain(d, 0)
			b.AttachDomain(d, 1)
			d.Lock()
			defer d.Unlock()

			if !d.AcquireFallback(0) {
				t.Fatal("fresh fallback lock not acquirable")
			}
			if d.AcquireFallback(1) {
				t.Fatal("fallback lock double-acquired")
			}
			mustBegin(t, b)
			var ce *ConflictError
			if err := b.RecordWrite(line(cfg, 2), 8, func() {}); !errors.As(err, &ce) {
				t.Fatalf("write under held lock: got %v, want ConflictError", err)
			} else if ce.Attr != AttrLock {
				t.Errorf("attribution = %v, want lock", ce.Attr)
			}
			if err := b.RecordRead(line(cfg, 2), 8); !errors.As(err, &ce) {
				t.Fatalf("read under held lock: got %v, want ConflictError", err)
			}
			if err := b.Abort(AbortConflict); err != nil {
				t.Fatal(err)
			}
			d.ReleaseFallback(0)
			if !d.AcquireFallback(1) {
				t.Fatal("fallback lock not re-acquirable after release")
			}
			d.ReleaseFallback(1)
		})
	}
}

// TestConflictProbe checks the oracle's forced-conflict hook fires for both
// access kinds and reports an injected (ownerless) conflict.
func TestConflictProbe(t *testing.T) {
	for name, cfg := range geometries() {
		t.Run(name, func(t *testing.T) {
			s := New(cfg)
			target := line(cfg, 13)
			s.SetConflictProbe(func(write bool, l uint64) bool { return l == 13 })
			mustBegin(t, s)
			var ce *ConflictError
			if err := s.RecordWrite(target, 8, func() {}); !errors.As(err, &ce) {
				t.Fatalf("probed write: got %v, want ConflictError", err)
			} else if ce.With != -1 {
				t.Errorf("injected conflict reports owner %d, want -1", ce.With)
			}
			if err := s.Abort(AbortConflict); err != nil {
				t.Fatal(err)
			}
			mustBegin(t, s)
			if err := s.RecordRead(target, 8); !errors.As(err, &ce) {
				t.Fatalf("probed read: got %v, want ConflictError", err)
			}
			if err := s.Abort(AbortConflict); err != nil {
				t.Fatal(err)
			}
			if s.ctrs.TxConflictAborts != 2 {
				t.Errorf("TxConflictAborts = %d, want 2", s.ctrs.TxConflictAborts)
			}
		})
	}
}

// TestConflictCapacityInteraction checks that a domain-attached ROT context
// pays no read-set capacity for conflict-tracked reads, while an RTM context
// still enforces its read geometry — the conflict layer must not change
// Table II capacity rules.
func TestConflictCapacityInteraction(t *testing.T) {
	rot := ROTConfig()
	d := NewDomain()
	s := New(rot)
	s.AttachDomain(d, 0)
	d.Lock()
	mustBegin(t, s)
	// Far beyond any read geometry: ROT must absorb it (no read capacity).
	for i := uint64(0); i < 10000; i++ {
		if err := s.RecordRead(i*uint64(rot.LineSize), 8); err != nil {
			t.Fatalf("ROT conflict-tracked read %d: %v", i, err)
		}
	}
	if got := s.Current().ReadBytes(); got != 0 {
		t.Errorf("ROT read footprint = %d bytes, want 0 (conflict tracking is capacity-free)", got)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	d.Unlock()

	rtm := RTMConfig()
	d2 := NewDomain()
	s2 := New(rtm)
	s2.AttachDomain(d2, 0)
	d2.Lock()
	defer d2.Unlock()
	mustBegin(t, s2)
	// One set's worth of same-set lines plus one must still overflow.
	var err error
	for i := 0; i <= rtm.ReadWays; i++ {
		addr := uint64(i*rtm.ReadSets) * uint64(rtm.LineSize)
		if err = s2.RecordRead(addr, 8); err != nil {
			break
		}
	}
	var capErr *CapacityError
	if !errors.As(err, &capErr) || capErr.Write {
		t.Fatalf("RTM read overflow with domain attached: got %v, want read CapacityError", err)
	}
}
