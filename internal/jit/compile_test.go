package jit_test

import (
	"fmt"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/core"
	"nomap/internal/ftl"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// wideSrc is one fixed wide function: a loop whose body repeats an array, a
// property, an int32 and a double statement group 16 times, warmed by 30
// calls.
func wideSrc() string {
	var body strings.Builder
	for i := range 16 {
		fmt.Fprintf(&body, "    A[i] = (A[i] + %d + x) & 1023;\n", i)
		fmt.Fprintf(&body, "    o.a = (o.a + o.b + i) & 65535; o.c = o.c ^ (o.a + %d);\n", i)
		fmt.Fprintf(&body, "    s = s + i * %d + x; s = s - (s >> 4);\n", i+1)
		fmt.Fprintf(&body, "    d = d * 0.75 + i * %d.25;\n", i)
	}
	return fmt.Sprintf(`var A = [];
for (var j = 0; j < 16; j++) A[j] = j;
var O = {a: 1, b: 2, c: 0};
function wide(x) {
  var o = O, s = 0, d = 0.5;
  for (var i = 0; i < 8; i++) {
%s  }
  return s + o.c + d;
}
for (var c = 0; c < 30; c++) wide(c & 7);
`, body.String())
}

// BenchmarkCompileFTL measures one FTL compile of a wide function under
// NoMap: ir.Build and the whole pipeline. Run it with -benchmem; the
// allocation gates are the AllocsPerRun tests in internal/opt and
// internal/ir.
func BenchmarkCompileFTL(b *testing.B) {
	benchCompile(b, ftl.Compile)
}

// BenchmarkCompileDFG measures one DFG compile of the same function: ir.Build
// and the DFG tier's rows of the pipeline.
func BenchmarkCompileDFG(b *testing.B) {
	benchCompile(b, ftl.CompileDFG)
}

func benchCompile(b *testing.B, compile func(*bytecode.Function, *profile.FunctionProfile, ftl.Options) (*ir.Func, error)) {
	cfg := vm.DefaultConfig()
	cfg.MaxTier = profile.TierBaseline
	v := vm.New(cfg)
	if _, err := v.Run(wideSrc()); err != nil {
		b.Fatal(err)
	}
	fn := v.Globals().Get("wide").Object().Fn.Code.(*bytecode.Function)
	prof := v.ProfileFor(fn)
	opts := jit.OptionsFor(vm.ArchNoMap, core.TxLoopNest)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := compile(fn, prof, opts); err != nil {
			b.Fatal(err)
		}
	}
}
