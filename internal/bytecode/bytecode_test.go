package bytecode

import (
	"strings"
	"testing"

	"nomap/internal/parser"
)

func compile(t *testing.T, src string) *Function {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return fn
}

func nested(t *testing.T, main *Function, name string) *Function {
	t.Helper()
	for _, f := range main.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no nested function %q", name)
	return nil
}

func TestTopLevelVarsAreGlobals(t *testing.T) {
	main := compile(t, "var a = 1; a = a + 1;")
	hasSetGlobal := false
	for _, in := range main.Code {
		if in.Op == OpSetGlobal {
			hasSetGlobal = true
		}
	}
	if !hasSetGlobal {
		t.Error("top-level var must compile to global stores")
	}
}

func TestFunctionLocalsAreRegisters(t *testing.T) {
	main := compile(t, `function f(p) { var x = p + 1; return x; }`)
	f := nested(t, main, "f")
	if f.NumParams != 1 {
		t.Errorf("NumParams = %d", f.NumParams)
	}
	if f.NumLocals < 2 {
		t.Errorf("NumLocals = %d, want >= 2 (p, x)", f.NumLocals)
	}
	for _, in := range f.Code {
		if in.Op == OpGetGlobal || in.Op == OpSetGlobal {
			t.Errorf("local access compiled to global op: %v", in)
		}
	}
	if f.UsesClosure {
		t.Error("plain function must not be closure-pinned")
	}
}

func TestCapturedVariablesUseCells(t *testing.T) {
	main := compile(t, `
function outer() {
  var n = 0;
  function inner() { n = n + 1; return n; }
  return inner;
}`)
	outer := nested(t, main, "outer")
	if !outer.UsesClosure {
		t.Error("outer provides a cell; must be closure-pinned")
	}
	if outer.NumCells != 1 {
		t.Errorf("outer.NumCells = %d, want 1", outer.NumCells)
	}
	inner := nested(t, outer, "inner")
	if !inner.UsesClosure {
		t.Error("inner captures; must be closure-pinned")
	}
	usesCell := false
	for _, in := range inner.Code {
		if in.Op == OpGetCell || in.Op == OpSetCell {
			usesCell = true
			if in.Op == OpGetCell && in.B != 1 {
				t.Errorf("capture depth = %d, want 1", in.B)
			}
		}
	}
	if !usesCell {
		t.Error("inner must access n through cells")
	}
}

func TestCapturedParamCopiedToCell(t *testing.T) {
	main := compile(t, `
function makeAdder(k) {
  return function(x) { return x + k; };
}`)
	outer := nested(t, main, "makeAdder")
	if len(outer.ParamCells) != 1 || outer.ParamCells[0][0] != 0 {
		t.Errorf("ParamCells = %v, want [[0 0]]", outer.ParamCells)
	}
	// Prologue must copy the param register into its cell.
	if outer.Code[0].Op != OpSetCell {
		t.Errorf("first op = %v, want setcell prologue", outer.Code[0].Op)
	}
}

func TestJumpTargetsInRange(t *testing.T) {
	main := compile(t, `
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    if (i % 2) continue;
    if (i > 100) break;
    s += i;
  }
  do { s++; } while (s < 0);
  while (s > 1000) { s -= 1; }
  return s;
}`)
	f := nested(t, main, "f")
	for pc, in := range f.Code {
		check := func(target int32) {
			if target < 0 || int(target) > len(f.Code) {
				t.Errorf("pc %d: jump target %d out of range", pc, target)
			}
		}
		switch in.Op {
		case OpJump:
			check(in.A)
		case OpJumpIfTrue, OpJumpIfFalse:
			check(in.B)
		}
	}
}

func TestFunctionsEndWithReturn(t *testing.T) {
	main := compile(t, `function f() { var x = 1; } function g() { return 2; }`)
	for _, f := range main.Funcs {
		last := f.Code[len(f.Code)-1]
		if last.Op != OpReturn {
			t.Errorf("%s ends with %v, want return", f.Name, last.Op)
		}
	}
}

func TestConstantPoolDeduplicated(t *testing.T) {
	main := compile(t, `function f() { return 7 + 7 + 7 + 7; }`)
	f := nested(t, main, "f")
	sevens := 0
	for _, c := range f.Consts {
		if c.IsInt32() && c.Int32() == 7 {
			sevens++
		}
	}
	if sevens != 1 {
		t.Errorf("constant 7 appears %d times in the pool", sevens)
	}
	// But int 1 and double 1.0... Number canonicalizes; strings distinct.
	main2 := compile(t, `function g() { return "a" + "a" + "b"; }`)
	g := nested(t, main2, "g")
	if len(g.Consts) != 2 {
		t.Errorf("string pool size = %d, want 2", len(g.Consts))
	}
}

func TestICSlotsUnique(t *testing.T) {
	main := compile(t, `function f(o) { return o.a + o.b + o.a; }`)
	f := nested(t, main, "f")
	seen := map[int32]bool{}
	n := 0
	for _, in := range f.Code {
		if in.Op == OpGetProp {
			if seen[in.D] {
				t.Errorf("IC slot %d reused", in.D)
			}
			seen[in.D] = true
			n++
		}
	}
	if n != 3 || f.NumICs < 3 {
		t.Errorf("props=%d NumICs=%d", n, f.NumICs)
	}
}

func TestDisassembleIsReadable(t *testing.T) {
	main := compile(t, `function f(a, b) { return a < b ? a : b; }`)
	f := nested(t, main, "f")
	dis := f.Disassemble()
	for _, want := range []string{"function f", "ret", "jf"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		"break;",
		"continue;",
		"function f() { break; }",
	} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(prog); err == nil {
			t.Errorf("%q: expected compile error", src)
		}
	}
}

func TestMethodCallEncoding(t *testing.T) {
	main := compile(t, `function f(o) { return o.m(1, 2, 3); }`)
	f := nested(t, main, "f")
	found := false
	for _, in := range f.Code {
		if in.Op == OpCallMethod {
			found = true
			if in.D != 3 {
				t.Errorf("argc = %d, want 3", in.D)
			}
			if f.Names[in.E] != "m" {
				t.Errorf("method name = %q", f.Names[in.E])
			}
		}
	}
	if !found {
		t.Error("no callm instruction emitted")
	}
}

// TestFunctionIndexPreorder: every function's Index is its position in a
// preorder walk from the top-level function, nested literals included.
func TestFunctionIndexPreorder(t *testing.T) {
	main := compile(t, `
function a() { function a1() { return 1; } var a2 = function() { return function a2x() { return 2; }; }; return a1() + a2()(); }
function b() { return 3; }
var c = function() { function c1() { return 4; } return c1(); };`)
	var names []string
	for i, fn := range Preorder(main) {
		if fn.Index != i {
			t.Errorf("%s: Index %d at preorder position %d", fn.Name, fn.Index, i)
		}
		names = append(names, fn.Name)
	}
	if got, want := strings.Join(names, " "), "<main> a a1 <anonymous> a2x b <anonymous> c1"; got != want {
		t.Errorf("preorder = %q, want %q", got, want)
	}
}
