package bytecode_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"nomap/internal/bytecode"
	"nomap/internal/oracle"
	"nomap/internal/parser"
	"nomap/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/disasm.golden with current output")

const disasmGolden = "testdata/disasm.golden"

// source is one program of the golden corpus.
type source struct{ name, src string }

// corpus returns every workload and the oracle generator's programs (setup
// and poison) for seeds 1–32.
func corpus() []source {
	var out []source
	for _, w := range workloads.All() {
		out = append(out, source{w.ID, w.Source})
	}
	for seed := int64(1); seed <= 32; seed++ {
		g := oracle.Generate(seed)
		out = append(out, source{fmt.Sprintf("gen-%d", seed), g.Render()})
		if g.Poison != "" {
			out = append(out, source{fmt.Sprintf("gen-%d-poison", seed), g.Poison})
		}
	}
	return out
}

// The fused bytecode of every corpus program, disassembled function by
// function in Preorder, is pinned: a change to codegen, fusion or the
// control-flow decoding the fuser relies on shows up as a diff here. After an
// intended codegen change regenerate with
//
//	go test ./internal/bytecode -run DisassemblyGolden -update
func TestDisassemblyGolden(t *testing.T) {
	var sb strings.Builder
	for _, s := range corpus() {
		prog, err := parser.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", s.name, err)
		}
		main, err := bytecode.Compile(prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", s.name, err)
		}
		fmt.Fprintf(&sb, "== %s\n", s.name)
		for _, fn := range bytecode.Preorder(main) {
			sb.WriteString(fn.Disassemble())
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(disasmGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(disasmGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("disassembly differs from %s at line %d:\n got: %s\nwant: %s", disasmGolden, i+1, g[i], w[i])
		}
	}
	t.Fatalf("disassembly has %d lines, %s has %d", len(g), disasmGolden, len(w))
}
