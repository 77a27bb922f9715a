package nomap

// Front-end fuzzing: arbitrary source goes through the lexer, the parser and
// the bytecode compiler (with fusion), then through the control-flow graph
// and the IR builder for every function, invocation entry and every loop
// header's OSR entry alike. Each input must yield functions or an error,
// never a panic.

import (
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/ir"
	"nomap/internal/oracle"
	"nomap/internal/parser"
	"nomap/internal/profile"
	"nomap/internal/workloads"
)

// maxFuzzSource caps a FuzzCompile input; longer inputs are skipped.
const maxFuzzSource = 4 << 10

func FuzzCompile(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add([]byte(w.Source))
	}
	for seed := int64(1); seed <= 32; seed++ {
		g := oracle.Generate(seed)
		f.Add([]byte(g.Render()))
		if g.Poison != "" {
			f.Add([]byte(g.Poison))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > maxFuzzSource {
			t.Skip()
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			return
		}
		main, err := bytecode.Compile(prog)
		if err != nil {
			return
		}
		for _, fn := range bytecode.Preorder(main) {
			if _, err := ir.Build(fn, profile.New(fn)); err != nil {
				continue
			}
			for _, b := range bytecode.NewCFG(fn).Blocks {
				if b.BackEdge {
					ir.BuildOSR(fn, profile.New(fn), fn.Code[b.End-1].Target())
				}
			}
		}
	})
}
