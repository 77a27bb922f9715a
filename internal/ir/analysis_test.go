package ir_test

import (
	"slices"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ftl"
	"nomap/internal/ir"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// One FTL compile builds the dominator tree twice, while the pass after
// inline runs (no pass between it and dce adds a block or changes an edge)
// and inside simplify-cfg, which edits edges by hand; it finds the loop
// forest once. The compiled function keeps neither.
func TestOneCompileBuildsAnalysesOnce(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	m := vm.New(cfg)
	if _, err := m.Run(carveSrc); err != nil {
		t.Fatal(err)
	}
	bc := m.Globals().Get("carve").Object().Fn.Code.(*bytecode.Function)
	for _, level := range []core.TxLevel{core.TxLoopNest, core.TxTiled} {
		var last string
		var doms, loops []string
		restore := ir.OnAnalysis(func(isLoops bool) {
			if isLoops {
				loops = append(loops, last)
			} else {
				doms = append(doms, last)
			}
		})
		var inlined bool
		f, err := ftl.Compile(bc, m.ProfileFor(bc), ftl.Options{
			Transactions: true, TxLevel: level, CombineBounds: true, RemoveOverflow: true,
			Inline: true, Profiles: m.ProfileFor,
			PassHook: func(pass string, f *ir.Func) {
				last = pass
				inlined = inlined || pass == "inline" && len(f.Inlines) > 0
			},
		})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if !inlined {
			t.Fatalf("%v: nothing inlined: the test needs the inliner to add blocks", level)
		}
		// Each entry names the pass before the one that filled the cache.
		if want := []string{"inline", "dce"}; !slices.Equal(doms, want) {
			t.Errorf("%v: dominator tree built after %v, want after %v", level, doms, want)
		}
		if want := []string{"inline"}; !slices.Equal(loops, want) {
			t.Errorf("%v: loop forest found after %v, want after %v", level, loops, want)
		}
		if ir.HoldsAnalyses(f) {
			t.Errorf("%v: the compiled function still holds its analyses", level)
		}
	}
}
