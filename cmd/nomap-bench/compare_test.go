package main

import (
	"strings"
	"testing"

	"nomap/internal/harness"
)

// A comparison repeats the protocol its baseline records — whatever
// -warmup/-measure said — and refuses a baseline no fresh snapshot is
// comparable with. Before this check `-compare BENCH_8.json -measure 8`
// reported a 57% speed-up and passed the gate.
func TestBaselineProtocol(t *testing.T) {
	flags := harness.DefaultConfig()
	flags.Warmup, flags.Measure = 5, 8
	cases := []struct {
		name    string
		old     benchFile
		wantErr string
	}{
		{"committed protocol wins over the flags", benchFile{Schema: 1, Arch: "NoMap", Warmup: 60, Measure: 20}, ""},
		{"zero warm-up is a protocol too", benchFile{Schema: 1, Arch: "NoMap", Measure: 3}, ""},
		{"other schema", benchFile{Schema: 2, Arch: "NoMap", Warmup: 60, Measure: 20}, "schema 2"},
		{"schema missing", benchFile{Arch: "NoMap", Warmup: 60, Measure: 20}, "schema 0"},
		{"other arch", benchFile{Schema: 1, Arch: "Base", Warmup: 60, Measure: 20}, `arch "Base"`},
	}
	for _, c := range cases {
		got, err := baselineProtocol(c.old, flags)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: refused: %v", c.name, err)
			continue
		}
		if got.Warmup != c.old.Warmup || got.Measure != c.old.Measure {
			t.Errorf("%s: measuring warmup %d measure %d, baseline recorded %d/%d",
				c.name, got.Warmup, got.Measure, c.old.Warmup, c.old.Measure)
		}
		if got.Policy != flags.Policy {
			t.Errorf("%s: tier-up policy changed to %+v", c.name, got.Policy)
		}
	}
}
