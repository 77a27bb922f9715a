package main

import (
	"strings"
	"testing"

	"nomap/internal/vm"
)

// A serving comparison is refused when the baseline's service costs were
// measured under another architecture or schema. Before this check
// `-compare BENCH_SERVE.json -arch base` reported a 24% "regression" that was
// only the difference between Base and NoMap.
func TestServeBaselineComparable(t *testing.T) {
	cases := []struct {
		name    string
		old     serveBenchFile
		arch    vm.Arch
		wantErr string
	}{
		{"same arch", serveBenchFile{Schema: 1, Arch: "NoMap"}, vm.ArchNoMap, ""},
		{"same non-default arch", serveBenchFile{Schema: 1, Arch: "NoMap_RTM"}, vm.ArchNoMapRTM, ""},
		{"other arch", serveBenchFile{Schema: 1, Arch: "NoMap"}, vm.ArchBase, `arch "NoMap"`},
		{"other schema", serveBenchFile{Schema: 3, Arch: "NoMap"}, vm.ArchNoMap, "schema 3"},
		{"schema missing", serveBenchFile{Arch: "NoMap"}, vm.ArchNoMap, "schema 0"},
	}
	for _, c := range cases {
		err := c.old.comparableWith(c.arch)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.wantErr)
		}
	}
}

// Loadgen mode refuses a rate or a request count it cannot simulate; before
// this check -qps 0 panicked dividing by zero.
func TestLoadgenFlagsChecked(t *testing.T) {
	cases := []struct {
		qps      int64
		requests int
		wantErr  string
	}{
		{10000, 10000, ""},
		{1, 1, ""},
		{0, 10000, "-qps"},
		{-5, 10000, "-qps"},
		{10000, 0, "-requests"},
		{10000, -1, "-requests"},
	}
	for _, c := range cases {
		err := checkLoadgenFlags(c.qps, c.requests)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("-qps %d -requests %d: refused: %v", c.qps, c.requests, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("-qps %d -requests %d: err = %v, want one naming %s", c.qps, c.requests, err, c.wantErr)
		}
	}
}
