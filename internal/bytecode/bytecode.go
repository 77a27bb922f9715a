// Package bytecode defines the register-based bytecode shared by the
// Interpreter and Baseline tiers, and the compiler from AST to bytecode.
//
// The bytecode register file is the canonical deoptimization state: every
// Stack Map Point in DFG/FTL code maps optimized values back to bytecode
// registers plus a pc, and on-stack replacement materializes a frame here
// (paper §II-B).
package bytecode

import (
	"fmt"

	"nomap/internal/value"
)

// Op is a bytecode opcode.
type Op uint8

const (
	OpNop Op = iota

	// Data movement. A=dst.
	OpLoadConst // B=const pool index
	OpLoadUndef
	OpMove // B=src

	// Binary operators: A=dst, B=lhs, C=rhs. These are the "generic" ops the
	// Baseline tier implements with runtime calls covering every corner case.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr
	OpUShr
	OpLess
	OpLessEq
	OpGreater
	OpGreaterEq
	OpEq
	OpNeq
	OpStrictEq
	OpStrictNeq

	// Unary operators: A=dst, B=src.
	OpNeg
	OpNot
	OpBitNot
	OpTypeof
	OpToNumber

	// Control flow.
	OpJump        // A=target pc
	OpJumpIfTrue  // A=cond, B=target
	OpJumpIfFalse // A=cond, B=target
	OpReturn      // A=src

	// Calls: arguments occupy registers [C, C+D).
	OpCall       // A=dst, B=callee reg
	OpCallMethod // A=dst, B=receiver reg, C=argStart, D=argc, E=name index
	OpNew        // A=dst, B=callee reg

	// Object model.
	OpNewObject // A=dst, B=literal key count (immediate, sizes the slots)
	OpNewArray  // A=dst, B=initial length (immediate)
	OpGetProp   // A=dst, B=obj, C=name index, D=IC slot
	OpSetProp   // A=obj, B=name index, C=src, D=IC slot
	OpGetElem   // A=dst, B=obj, C=index reg
	OpSetElem   // A=obj, B=index reg, C=src
	OpSetElemI  // A=obj, B=immediate index, C=src (array literals)
	OpGetGlobal // A=dst, B=name index, C=IC slot
	OpSetGlobal // A=name index, B=src, C=IC slot

	// Closures.
	OpGetCell     // A=dst, B=depth, C=cell index
	OpSetCell     // A=depth, B=cell index, C=src
	OpMakeClosure // A=dst, B=nested function index

	// Fused superinstructions, produced only by the peephole pass (Fuse) —
	// codegen never emits them directly. Each is semantically identical to
	// the instruction sequence it replaced, at a single dispatch.
	OpAddK // A=dst, B=src, C=const pool index: dst = src + consts[C]
	OpSubK // A=dst, B=src, C=const pool index: dst = src - consts[C]
	OpMulK // A=dst, B=src, C=const pool index: dst = src * consts[C]
	OpIncr // A=reg, B=delta (+1/-1): reg = ToNumber(reg) + delta
	// Compare-and-branch: the compare's boolean register was proven dead, so
	// the fused form produces no value. D holds the comparison opcode.
	OpCmpJF  // A=lhs, B=rhs reg, C=target, D=compare op: jump when false
	OpCmpJT  // A=lhs, B=rhs reg, C=target, D=compare op: jump when true
	OpCmpKJF // A=lhs, B=const pool index, C=target, D=compare op
	OpCmpKJT // A=lhs, B=const pool index, C=target, D=compare op

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpLoadConst: "ldc", OpLoadUndef: "ldundef", OpMove: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpBitAnd: "and", OpBitOr: "or", OpBitXor: "xor", OpShl: "shl", OpShr: "shr",
	OpUShr: "ushr", OpLess: "lt", OpLessEq: "le", OpGreater: "gt",
	OpGreaterEq: "ge", OpEq: "eq", OpNeq: "ne", OpStrictEq: "seq",
	OpStrictNeq: "sne", OpNeg: "neg", OpNot: "not", OpBitNot: "bnot",
	OpTypeof: "typeof", OpToNumber: "tonum", OpJump: "jmp",
	OpJumpIfTrue: "jt", OpJumpIfFalse: "jf", OpReturn: "ret", OpCall: "call",
	OpCallMethod: "callm", OpNew: "new", OpNewObject: "newobj",
	OpNewArray: "newarr", OpGetProp: "getprop", OpSetProp: "setprop",
	OpGetElem: "getelem", OpSetElem: "setelem", OpSetElemI: "setelemi",
	OpGetGlobal: "getg", OpSetGlobal: "setg", OpGetCell: "getcell",
	OpSetCell: "setcell", OpMakeClosure: "closure",
	OpAddK: "addk", OpSubK: "subk", OpMulK: "mulk", OpIncr: "incr",
	OpCmpJF: "cmpjf", OpCmpJT: "cmpjt", OpCmpKJF: "cmpkjf", OpCmpKJT: "cmpkjt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBinary reports whether the op is a two-operand arithmetic/comparison op.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpStrictNeq }

// IsCompare reports whether the op produces a boolean comparison result.
func (o Op) IsCompare() bool { return o >= OpLess && o <= OpStrictNeq }

// Cmp returns the comparison a compare op performs; the loose and strict
// equalities share CmpEQ/CmpNE, which is exact on two numbers.
func (o Op) Cmp() value.Cmp {
	switch o {
	case OpLess:
		return value.CmpLT
	case OpLessEq:
		return value.CmpLE
	case OpGreater:
		return value.CmpGT
	case OpGreaterEq:
		return value.CmpGE
	case OpEq, OpStrictEq:
		return value.CmpEQ
	}
	return value.CmpNE
}

// Eval applies the generic semantics of the binary operator o: the bytecode
// tiers' slow path and the machine's "binop" runtime entry both run it. It
// panics if o is not binary.
func (o Op) Eval(a, b value.Value) value.Value {
	switch o {
	case OpAdd:
		return value.Add(a, b)
	case OpSub:
		return value.Sub(a, b)
	case OpMul:
		return value.Mul(a, b)
	case OpDiv:
		return value.Div(a, b)
	case OpMod:
		return value.Mod(a, b)
	case OpBitAnd:
		return value.BitAnd(a, b)
	case OpBitOr:
		return value.BitOr(a, b)
	case OpBitXor:
		return value.BitXor(a, b)
	case OpShl:
		return value.Shl(a, b)
	case OpShr:
		return value.Shr(a, b)
	case OpUShr:
		return value.UShr(a, b)
	case OpLess, OpLessEq, OpGreater, OpGreaterEq:
		return value.Compare(a, b, o.Cmp())
	case OpEq:
		return value.Boolean(value.LooseEquals(a, b))
	case OpNeq:
		return value.Boolean(!value.LooseEquals(a, b))
	case OpStrictEq:
		return value.Boolean(value.StrictEquals(a, b))
	case OpStrictNeq:
		return value.Boolean(!value.StrictEquals(a, b))
	}
	panic(fmt.Sprintf("bytecode: %v is not a binary op", o))
}

// RuntimeError is a JavaScript-level runtime error (TypeError-like). Every
// tier raises it the same way — attributed to the bytecode function and
// source line of the failing operation — so a program fails with the same
// error whether the Interpreter, Baseline or optimized code ran it.
type RuntimeError struct {
	Fn   string
	Line int32
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s (line %d): %s", e.Fn, e.Line, e.Msg)
}

// Errorf returns the RuntimeError raised by f's instruction at pc.
func (f *Function) Errorf(pc int, format string, args ...any) *RuntimeError {
	e := &RuntimeError{Fn: f.Name, Msg: fmt.Sprintf(format, args...)}
	if pc >= 0 && pc < len(f.Code) {
		e.Line = f.Code[pc].Line
	}
	return e
}

// IsFused reports whether the op is a peephole superinstruction.
func (o Op) IsFused() bool { return o >= OpAddK && o <= OpCmpKJT }

// IsCmpBranch reports whether the op is a fused compare-and-branch.
func (o Op) IsCmpBranch() bool { return o >= OpCmpJF && o <= OpCmpKJT }

// Instr is one bytecode instruction. Operand meaning depends on Op.
type Instr struct {
	Op   Op
	A    int32
	B    int32
	C    int32
	D    int32
	E    int32
	Line int32 // source line for diagnostics
}

func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpLoadUndef, OpNewObject:
		return fmt.Sprintf("%-8s r%d", in.Op, in.A)
	case OpJump:
		return fmt.Sprintf("%-8s @%d", in.Op, in.Target())
	case OpJumpIfTrue, OpJumpIfFalse:
		return fmt.Sprintf("%-8s r%d @%d", in.Op, in.A, in.Target())
	case OpReturn:
		return fmt.Sprintf("%-8s r%d", in.Op, in.A)
	case OpCallMethod:
		return fmt.Sprintf("%-8s r%d = r%d.[n%d](r%d..+%d)", in.Op, in.A, in.B, in.E, in.C, in.D)
	case OpCall, OpNew:
		return fmt.Sprintf("%-8s r%d = r%d(r%d..+%d)", in.Op, in.A, in.B, in.C, in.D)
	case OpAddK, OpSubK, OpMulK:
		return fmt.Sprintf("%-8s r%d, r%d, #%d", in.Op, in.A, in.B, in.C)
	case OpIncr:
		return fmt.Sprintf("%-8s r%d, %+d", in.Op, in.A, in.B)
	case OpCmpJF, OpCmpJT:
		return fmt.Sprintf("%-8s %s r%d, r%d @%d", in.Op, Op(in.D), in.A, in.B, in.Target())
	case OpCmpKJF, OpCmpKJT:
		return fmt.Sprintf("%-8s %s r%d, #%d @%d", in.Op, Op(in.D), in.A, in.B, in.Target())
	default:
		return fmt.Sprintf("%-8s r%d, %d, %d, %d", in.Op, in.A, in.B, in.C, in.D)
	}
}

// Function is a compiled function body.
type Function struct {
	Name      string
	NumParams int
	NumLocals int // locals (incl. params) occupy registers [0, NumLocals)
	NumRegs   int // full frame size including expression temporaries
	NumCells  int // closure cells provided by this function's environment
	NumICs    int // inline-cache slots referenced by the code

	Code   []Instr
	Consts []value.Value
	Names  []string    // property / global name pool
	Funcs  []*Function // nested function literals (OpMakeClosure targets)

	// Index names the function within its program for portable profile
	// feedback: its position in Preorder from the top-level function (0).
	Index int

	// UsesClosure pins the function to the lower tiers: it captures outer
	// variables, provides cells to inner functions, or contains nested
	// function literals.
	UsesClosure bool

	// ParamCells lists params that must be copied into cells on entry,
	// as (paramIndex, cellIndex) pairs.
	ParamCells [][2]int
}

// Disassemble renders the function for debugging and golden tests.
func (f *Function) Disassemble() string {
	s := fmt.Sprintf("function %s(params=%d locals=%d regs=%d cells=%d)\n",
		f.Name, f.NumParams, f.NumLocals, f.NumRegs, f.NumCells)
	for i, in := range f.Code {
		s += fmt.Sprintf("  %4d: %s\n", i, in)
	}
	return s
}
