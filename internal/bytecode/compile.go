package bytecode

import (
	"fmt"
	"slices"

	"nomap/internal/ast"
	"nomap/internal/value"
)

// Compile translates a parsed program into a top-level function ("<main>",
// executed once per run) plus recursively compiled nested functions. All
// top-level vars become globals, matching JavaScript script semantics. The
// peephole fusion pass (Fuse) runs on every compiled function, so the code
// all tiers see contains superinstructions.
func Compile(prog *ast.Program) (*Function, error) {
	fn, err := compileProg(prog)
	if err != nil {
		return nil, err
	}
	FuseTree(fn)
	return fn, nil
}

// CompileNoFuse compiles without the peephole fusion pass: the exact
// one-op-per-step codegen output, the reference semantics the peephole pass
// is checked against in differential tests.
func CompileNoFuse(prog *ast.Program) (*Function, error) {
	return compileProg(prog)
}

func compileProg(prog *ast.Program) (*Function, error) {
	res := resolveProgram(prog)
	c := newCompiler("<main>", nil, res)
	if err := c.hoistFunctionDecls(prog.Body); err != nil {
		return nil, err
	}
	for _, s := range prog.Body {
		if err := c.stmt(s); err != nil {
			return nil, err
		}
	}
	c.emitImplicitReturn()
	main := c.finish()
	for i, fn := range Preorder(main) {
		fn.Index = i
	}
	return main, nil
}

// Preorder lists main and its nested functions in preorder: the order of
// Function.Index.
func Preorder(main *Function) []*Function {
	out := []*Function{main}
	for i := 0; i < len(out); i++ {
		out = slices.Insert(out, i+1, out[i].Funcs...)
	}
	return out
}

// CompileError is a semantic error found during bytecode generation.
type CompileError struct {
	P   ast.Position
	Msg string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("compile error at %s: %s", e.P, e.Msg)
}

type loopCtx struct {
	breakPatches    []int
	continuePatches []int
	// isSwitch marks a switch context: break targets it, continue skips it.
	isSwitch bool
}

type compiler struct {
	fn   *Function
	info *fnInfo // nil at top level
	res  *resolution

	nextTemp int // next free temporary register
	maxTemp  int

	loops []*loopCtx

	constIdx map[constKey]int
	nameIdx  map[string]int
	line     int32
}

type constKey struct {
	kind value.Kind
	f    float64
	s    string
	b    bool
}

func newCompiler(name string, info *fnInfo, res *resolution) *compiler {
	c := &compiler{
		fn:       &Function{Name: name},
		info:     info,
		res:      res,
		constIdx: make(map[constKey]int),
		nameIdx:  make(map[string]int),
	}
	if info != nil {
		c.fn.NumParams = len(info.lit.Params)
		c.fn.NumLocals = info.numLocals
		c.fn.NumCells = info.numCells
		c.fn.UsesClosure = info.uses
		c.fn.ParamCells = info.paramCells
	}
	c.nextTemp = c.fn.NumLocals
	c.maxTemp = c.nextTemp
	return c
}

func (c *compiler) finish() *Function {
	c.fn.NumRegs = c.maxTemp
	return c.fn
}

func (c *compiler) errf(p ast.Position, format string, args ...any) error {
	return &CompileError{P: p, Msg: fmt.Sprintf(format, args...)}
}

// --- emission helpers ---

func (c *compiler) emit(in Instr) int {
	in.Line = c.line
	c.fn.Code = append(c.fn.Code, in)
	return len(c.fn.Code) - 1
}

func (c *compiler) patchJump(at int) { c.fn.Code[at].SetTarget(len(c.fn.Code)) }

// alloc reserves one temporary register.
func (c *compiler) alloc() int {
	r := c.nextTemp
	c.nextTemp++
	if c.nextTemp > c.maxTemp {
		c.maxTemp = c.nextTemp
	}
	return r
}

// allocN reserves n consecutive temporaries (call argument windows).
func (c *compiler) allocN(n int) int {
	r := c.nextTemp
	c.nextTemp += n
	if c.nextTemp > c.maxTemp {
		c.maxTemp = c.nextTemp
	}
	return r
}

// mark/release implement stack-disciplined temp reuse.
func (c *compiler) mark() int        { return c.nextTemp }
func (c *compiler) release(mark int) { c.nextTemp = mark }

func (c *compiler) constant(v value.Value) int {
	k := constKey{kind: v.Kind()}
	switch v.Kind() {
	case value.KindInt32, value.KindDouble:
		k.f = v.Float()
		if v.Kind() == value.KindDouble {
			k.b = true // distinguish double 1 from int 1
		}
	case value.KindString:
		k.s = v.StringVal()
	case value.KindBool:
		k.b = v.Bool()
	}
	if i, ok := c.constIdx[k]; ok {
		return i
	}
	c.fn.Consts = append(c.fn.Consts, v)
	i := len(c.fn.Consts) - 1
	c.constIdx[k] = i
	return i
}

func (c *compiler) name(s string) int {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	c.fn.Names = append(c.fn.Names, s)
	i := len(c.fn.Names) - 1
	c.nameIdx[s] = i
	return i
}

func (c *compiler) icSlot() int {
	s := c.fn.NumICs
	c.fn.NumICs++
	return s
}

func (c *compiler) emitImplicitReturn() {
	t := c.alloc()
	c.emit(Instr{Op: OpLoadUndef, A: int32(t)})
	c.emit(Instr{Op: OpReturn, A: int32(t)})
}

// hoistFunctionDecls materializes closures for directly declared functions
// before other statements run (JavaScript hoisting).
func (c *compiler) hoistFunctionDecls(body []ast.Stmt) error {
	for _, s := range body {
		d, ok := s.(*ast.FunctionDecl)
		if !ok {
			continue
		}
		sub, err := c.compileNested(d.Fn)
		if err != nil {
			return err
		}
		m := c.mark()
		t := c.alloc()
		c.emit(Instr{Op: OpMakeClosure, A: int32(t), B: int32(sub)})
		if err := c.storeName(d.Fn.Name, t, d.P); err != nil {
			return err
		}
		c.release(m)
	}
	return nil
}

func (c *compiler) compileNested(lit *ast.FunctionLiteral) (int, error) {
	info := c.res.fns[lit]
	name := lit.Name
	if name == "" {
		name = "<anonymous>"
	}
	sub := newCompiler(name, info, c.res)
	// Copy captured params into their cells on entry.
	for _, pc := range info.paramCells {
		sub.emit(Instr{Op: OpSetCell, A: 0, B: int32(pc[1]), C: int32(pc[0])})
	}
	if err := sub.hoistFunctionDecls(lit.Body.Body); err != nil {
		return 0, err
	}
	for _, s := range lit.Body.Body {
		if err := sub.stmt(s); err != nil {
			return 0, err
		}
	}
	sub.emitImplicitReturn()
	c.fn.Funcs = append(c.fn.Funcs, sub.finish())
	return len(c.fn.Funcs) - 1, nil
}

// storeName assigns register src to the named variable.
func (c *compiler) storeName(name string, src int, p ast.Position) error {
	ref := c.res.resolveName(name, c.info)
	switch ref.kind {
	case refGlobal:
		c.emit(Instr{Op: OpSetGlobal, A: int32(c.name(name)), B: int32(src), C: int32(c.icSlot())})
	case refLocal:
		if ref.index != src {
			c.emit(Instr{Op: OpMove, A: int32(ref.index), B: int32(src)})
		}
	case refCell:
		c.emit(Instr{Op: OpSetCell, A: int32(ref.depth), B: int32(ref.index), C: int32(src)})
	}
	return nil
}

// --- statements ---

func (c *compiler) stmt(s ast.Stmt) error {
	c.line = int32(s.Pos().Line)
	switch n := s.(type) {
	case *ast.VarDecl:
		for i, name := range n.Names {
			if n.Inits[i] == nil {
				// Hoisted declarations without initializers: globals must
				// exist as undefined; locals already start undefined.
				if c.res.resolveName(name, c.info).kind == refGlobal {
					m := c.mark()
					t := c.alloc()
					c.emit(Instr{Op: OpLoadUndef, A: int32(t)})
					if err := c.storeName(name, t, n.P); err != nil {
						return err
					}
					c.release(m)
				}
				continue
			}
			m := c.mark()
			t, err := c.exprToTemp(n.Inits[i])
			if err != nil {
				return err
			}
			if err := c.storeName(name, t, n.P); err != nil {
				return err
			}
			c.release(m)
		}
		return nil
	case *ast.FunctionDecl:
		return nil // handled by hoisting
	case *ast.ExprStmt:
		m := c.mark()
		_, err := c.exprToTemp(n.X)
		c.release(m)
		return err
	case *ast.BlockStmt:
		for _, b := range n.Body {
			if err := c.stmt(b); err != nil {
				return err
			}
		}
		return nil
	case *ast.IfStmt:
		m := c.mark()
		cond, err := c.exprToTemp(n.Cond)
		if err != nil {
			return err
		}
		jf := c.emit(Instr{Op: OpJumpIfFalse, A: int32(cond)})
		c.release(m)
		if err := c.stmt(n.Then); err != nil {
			return err
		}
		if n.Else == nil {
			c.patchJump(jf)
			return nil
		}
		jend := c.emit(Instr{Op: OpJump})
		c.patchJump(jf)
		if err := c.stmt(n.Else); err != nil {
			return err
		}
		c.patchJump(jend)
		return nil
	case *ast.WhileStmt:
		return c.loop(nil, n.Cond, nil, n.Body, false)
	case *ast.DoWhileStmt:
		return c.loop(nil, n.Cond, nil, n.Body, true)
	case *ast.ForStmt:
		return c.loop(n.Init, n.Cond, n.Post, n.Body, false)
	case *ast.ReturnStmt:
		m := c.mark()
		var src int
		if n.X != nil {
			t, err := c.exprToTemp(n.X)
			if err != nil {
				return err
			}
			src = t
		} else {
			src = c.alloc()
			c.emit(Instr{Op: OpLoadUndef, A: int32(src)})
		}
		c.emit(Instr{Op: OpReturn, A: int32(src)})
		c.release(m)
		return nil
	case *ast.SwitchStmt:
		return c.switchStmt(n)
	case *ast.BreakStmt:
		if len(c.loops) == 0 {
			return c.errf(n.P, "break outside loop or switch")
		}
		l := c.loops[len(c.loops)-1]
		l.breakPatches = append(l.breakPatches, c.emit(Instr{Op: OpJump}))
		return nil
	case *ast.ContinueStmt:
		// continue applies to loops only; skip enclosing switch contexts.
		for i := len(c.loops) - 1; i >= 0; i-- {
			if c.loops[i].isSwitch {
				continue
			}
			c.loops[i].continuePatches = append(c.loops[i].continuePatches, c.emit(Instr{Op: OpJump}))
			return nil
		}
		return c.errf(n.P, "continue outside loop")
	}
	return c.errf(s.Pos(), "unsupported statement %T", s)
}

// loop compiles while / do-while / for uniformly. Layout:
//
//	init
//	head:  cond -> jf exit        (skipped on first iteration of do-while)
//	body
//	cont:  post; jmp head
//	exit:
func (c *compiler) loop(init ast.Stmt, cond ast.Expr, post ast.Expr, body ast.Stmt, isDoWhile bool) error {
	if init != nil {
		if err := c.stmt(init); err != nil {
			return err
		}
	}
	var skipFirstCond int
	if isDoWhile {
		skipFirstCond = c.emit(Instr{Op: OpJump})
	}
	head := len(c.fn.Code)
	var condJump = -1
	if cond != nil {
		m := c.mark()
		t, err := c.exprToTemp(cond)
		if err != nil {
			return err
		}
		condJump = c.emit(Instr{Op: OpJumpIfFalse, A: int32(t)})
		c.release(m)
	}
	if isDoWhile {
		c.patchJump(skipFirstCond)
	}
	l := &loopCtx{}
	c.loops = append(c.loops, l)
	if err := c.stmt(body); err != nil {
		return err
	}
	c.loops = c.loops[:len(c.loops)-1]
	// continue target: post-expression (or condition re-check).
	for _, at := range l.continuePatches {
		c.patchJump(at)
	}
	if post != nil {
		m := c.mark()
		if _, err := c.exprToTemp(post); err != nil {
			return err
		}
		c.release(m)
	}
	c.fn.Code[c.emit(Instr{Op: OpJump})].SetTarget(head)
	if condJump >= 0 {
		c.patchJump(condJump)
	}
	for _, at := range l.breakPatches {
		c.patchJump(at)
	}
	return nil
}

// switchStmt desugars a switch into a strict-equality dispatch sequence
// followed by the case bodies laid out for fallthrough:
//
//	disc = <discriminant>
//	if disc === test0 -> body0; if disc === test1 -> body1; ...
//	jmp defaultBody (or end)
//	body0: ...; body1: ...   (fallthrough unless break)
func (c *compiler) switchStmt(n *ast.SwitchStmt) error {
	m := c.mark()
	disc := c.alloc()
	if err := c.expr(n.Disc, disc); err != nil {
		return err
	}
	// Dispatch: one placeholder jump per non-default case.
	caseJumps := make(map[int]int) // case index -> jump pc
	eq := c.alloc()
	for i, cs := range n.Cases {
		if cs.Test == nil {
			continue
		}
		tm := c.mark()
		tr, err := c.exprToTemp(cs.Test)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpStrictEq, A: int32(eq), B: int32(disc), C: int32(tr)})
		caseJumps[i] = c.emit(Instr{Op: OpJumpIfTrue, A: int32(eq)})
		c.release(tm)
	}
	defaultJump := c.emit(Instr{Op: OpJump}) // to default body or end
	c.release(m)

	ctx := &loopCtx{isSwitch: true}
	c.loops = append(c.loops, ctx)
	defaultPatched := false
	for i, cs := range n.Cases {
		if at, ok := caseJumps[i]; ok {
			c.patchJump(at)
		} else {
			c.patchJump(defaultJump)
			defaultPatched = true
		}
		for _, st := range cs.Body {
			if err := c.stmt(st); err != nil {
				return err
			}
		}
	}
	c.loops = c.loops[:len(c.loops)-1]
	if !defaultPatched {
		c.patchJump(defaultJump)
	}
	for _, at := range ctx.breakPatches {
		c.patchJump(at)
	}
	return nil
}

// --- expressions ---

// exprToTemp evaluates e into a register and returns it. Identifiers bound to
// local registers are returned in place (no copy); anything else lands in a
// fresh temporary.
func (c *compiler) exprToTemp(e ast.Expr) (int, error) {
	if id, ok := e.(*ast.Ident); ok {
		ref := c.res.resolveName(id.Name, c.info)
		if ref.kind == refLocal {
			return ref.index, nil
		}
	}
	dst := c.alloc()
	if err := c.expr(e, dst); err != nil {
		return 0, err
	}
	return dst, nil
}

var binaryOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"&": OpBitAnd, "|": OpBitOr, "^": OpBitXor,
	"<<": OpShl, ">>": OpShr, ">>>": OpUShr,
	"<": OpLess, "<=": OpLessEq, ">": OpGreater, ">=": OpGreaterEq,
	"==": OpEq, "!=": OpNeq, "===": OpStrictEq, "!==": OpStrictNeq,
}

// expr compiles e into the given destination register.
func (c *compiler) expr(e ast.Expr, dst int) error {
	c.line = int32(e.Pos().Line)
	switch n := e.(type) {
	case *ast.NumberLit:
		c.emit(Instr{Op: OpLoadConst, A: int32(dst), B: int32(c.constant(value.Number(n.Value)))})
		return nil
	case *ast.StringLit:
		c.emit(Instr{Op: OpLoadConst, A: int32(dst), B: int32(c.constant(value.Str(n.Value)))})
		return nil
	case *ast.BoolLit:
		c.emit(Instr{Op: OpLoadConst, A: int32(dst), B: int32(c.constant(value.Boolean(n.Value)))})
		return nil
	case *ast.NullLit:
		c.emit(Instr{Op: OpLoadConst, A: int32(dst), B: int32(c.constant(value.Null()))})
		return nil
	case *ast.UndefinedLit:
		c.emit(Instr{Op: OpLoadUndef, A: int32(dst)})
		return nil
	case *ast.Ident:
		ref := c.res.resolveName(n.Name, c.info)
		switch ref.kind {
		case refGlobal:
			c.emit(Instr{Op: OpGetGlobal, A: int32(dst), B: int32(c.name(n.Name)), C: int32(c.icSlot())})
		case refLocal:
			if ref.index != dst {
				c.emit(Instr{Op: OpMove, A: int32(dst), B: int32(ref.index)})
			}
		case refCell:
			c.emit(Instr{Op: OpGetCell, A: int32(dst), B: int32(ref.depth), C: int32(ref.index)})
		}
		return nil
	case *ast.ArrayLit:
		c.emit(Instr{Op: OpNewArray, A: int32(dst), B: int32(len(n.Elems))})
		for i, el := range n.Elems {
			m := c.mark()
			t, err := c.exprToTemp(el)
			if err != nil {
				return err
			}
			c.emit(Instr{Op: OpSetElemI, A: int32(dst), B: int32(i), C: int32(t)})
			c.release(m)
		}
		return nil
	case *ast.ObjectLit:
		c.emit(Instr{Op: OpNewObject, A: int32(dst), B: int32(len(n.Keys))})
		for i, k := range n.Keys {
			m := c.mark()
			t, err := c.exprToTemp(n.Values[i])
			if err != nil {
				return err
			}
			c.emit(Instr{Op: OpSetProp, A: int32(dst), B: int32(c.name(k)), C: int32(t), D: int32(c.icSlot())})
			c.release(m)
		}
		return nil
	case *ast.FunctionLiteral:
		idx, err := c.compileNested(n)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpMakeClosure, A: int32(dst), B: int32(idx)})
		return nil
	case *ast.Unary:
		return c.unary(n, dst)
	case *ast.Update:
		return c.update(n, dst)
	case *ast.Binary:
		op, ok := binaryOps[n.Op]
		if !ok {
			return c.errf(n.P, "unsupported binary operator %q", n.Op)
		}
		m := c.mark()
		l, err := c.exprToTemp(n.L)
		if err != nil {
			return err
		}
		r, err := c.exprToTemp(n.R)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: op, A: int32(dst), B: int32(l), C: int32(r)})
		c.release(m)
		return nil
	case *ast.Logical:
		if err := c.expr(n.L, dst); err != nil {
			return err
		}
		var j int
		if n.Op == "&&" {
			j = c.emit(Instr{Op: OpJumpIfFalse, A: int32(dst)})
		} else {
			j = c.emit(Instr{Op: OpJumpIfTrue, A: int32(dst)})
		}
		if err := c.expr(n.R, dst); err != nil {
			return err
		}
		c.patchJump(j)
		return nil
	case *ast.Assign:
		return c.assign(n, dst)
	case *ast.Conditional:
		m := c.mark()
		t, err := c.exprToTemp(n.Cond)
		if err != nil {
			return err
		}
		jf := c.emit(Instr{Op: OpJumpIfFalse, A: int32(t)})
		c.release(m)
		if err := c.expr(n.A, dst); err != nil {
			return err
		}
		jend := c.emit(Instr{Op: OpJump})
		c.patchJump(jf)
		if err := c.expr(n.B, dst); err != nil {
			return err
		}
		c.patchJump(jend)
		return nil
	case *ast.Member:
		m := c.mark()
		obj, err := c.exprToTemp(n.X)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpGetProp, A: int32(dst), B: int32(obj), C: int32(c.name(n.Name)), D: int32(c.icSlot())})
		c.release(m)
		return nil
	case *ast.Index:
		m := c.mark()
		obj, err := c.exprToTemp(n.X)
		if err != nil {
			return err
		}
		idx, err := c.exprToTemp(n.I)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpGetElem, A: int32(dst), B: int32(obj), C: int32(idx)})
		c.release(m)
		return nil
	case *ast.Call:
		return c.call(n, dst)
	}
	return c.errf(e.Pos(), "unsupported expression %T", e)
}

func (c *compiler) unary(n *ast.Unary, dst int) error {
	m := c.mark()
	src, err := c.exprToTemp(n.X)
	if err != nil {
		return err
	}
	defer c.release(m)
	switch n.Op {
	case "-":
		c.emit(Instr{Op: OpNeg, A: int32(dst), B: int32(src)})
	case "+":
		c.emit(Instr{Op: OpToNumber, A: int32(dst), B: int32(src)})
	case "!":
		c.emit(Instr{Op: OpNot, A: int32(dst), B: int32(src)})
	case "~":
		c.emit(Instr{Op: OpBitNot, A: int32(dst), B: int32(src)})
	case "typeof":
		c.emit(Instr{Op: OpTypeof, A: int32(dst), B: int32(src)})
	default:
		return c.errf(n.P, "unsupported unary operator %q", n.Op)
	}
	return nil
}

func (c *compiler) update(n *ast.Update, dst int) error {
	op := OpAdd
	if n.Op == "--" {
		op = OpSub
	}
	one := int32(c.constant(value.Int(1)))
	m := c.mark()
	defer c.release(m)
	oldN := c.alloc()
	newV := c.alloc()
	oneR := c.alloc()
	cur, tr, err := c.loadTarget(n.X)
	if err != nil {
		return err
	}
	c.emit(Instr{Op: OpToNumber, A: int32(oldN), B: int32(cur)})
	c.emit(Instr{Op: OpLoadConst, A: int32(oneR), B: one})
	c.emit(Instr{Op: op, A: int32(newV), B: int32(oldN), C: int32(oneR)})
	if err := c.storeTarget(n.X, newV, tr); err != nil {
		return err
	}
	if n.Prefix {
		c.emit(Instr{Op: OpMove, A: int32(dst), B: int32(newV)})
	} else {
		c.emit(Instr{Op: OpMove, A: int32(dst), B: int32(oldN)})
	}
	return nil
}

func (c *compiler) assign(n *ast.Assign, dst int) error {
	m := c.mark()
	defer c.release(m)
	if n.Op == "" {
		// Evaluate target sub-expressions before the value (JS order).
		tr, err := c.evalTargetRefs(n.Target)
		if err != nil {
			return err
		}
		v, err := c.exprToTemp(n.Value)
		if err != nil {
			return err
		}
		if err := c.storeTarget(n.Target, v, tr); err != nil {
			return err
		}
		if v != dst {
			c.emit(Instr{Op: OpMove, A: int32(dst), B: int32(v)})
		}
		return nil
	}
	op, ok := binaryOps[n.Op]
	if !ok {
		return c.errf(n.P, "unsupported compound operator %q", n.Op)
	}
	cur, tr, err := c.loadTarget(n.Target)
	if err != nil {
		return err
	}
	v, err := c.exprToTemp(n.Value)
	if err != nil {
		return err
	}
	res := c.alloc()
	c.emit(Instr{Op: op, A: int32(res), B: int32(cur), C: int32(v)})
	if err := c.storeTarget(n.Target, res, tr); err != nil {
		return err
	}
	if res != dst {
		c.emit(Instr{Op: OpMove, A: int32(dst), B: int32(res)})
	}
	return nil
}

// targetRef holds the registers of a member/index target's evaluated
// sub-expressions, so load/store pairs run side effects exactly once.
type targetRef struct {
	obj, idx int // -1 when not applicable
}

// evalTargetRefs evaluates the object (and index) sub-expressions of an
// assignment target into temporaries, leaving them live for storeTarget.
func (c *compiler) evalTargetRefs(e ast.Expr) (targetRef, error) {
	tr := targetRef{obj: -1, idx: -1}
	switch t := e.(type) {
	case *ast.Member:
		tr.obj = c.alloc()
		if err := c.expr(t.X, tr.obj); err != nil {
			return tr, err
		}
	case *ast.Index:
		tr.obj = c.alloc()
		if err := c.expr(t.X, tr.obj); err != nil {
			return tr, err
		}
		tr.idx = c.alloc()
		if err := c.expr(t.I, tr.idx); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// loadTarget evaluates an assignable expression's current value into a
// register, returning the evaluated target refs for the paired storeTarget.
func (c *compiler) loadTarget(e ast.Expr) (int, targetRef, error) {
	tr, err := c.evalTargetRefs(e)
	if err != nil {
		return 0, tr, err
	}
	switch t := e.(type) {
	case *ast.Ident:
		reg, err := c.exprToTemp(t)
		return reg, tr, err
	case *ast.Member:
		dst := c.alloc()
		c.emit(Instr{Op: OpGetProp, A: int32(dst), B: int32(tr.obj), C: int32(c.name(t.Name)), D: int32(c.icSlot())})
		return dst, tr, nil
	case *ast.Index:
		dst := c.alloc()
		c.emit(Instr{Op: OpGetElem, A: int32(dst), B: int32(tr.obj), C: int32(tr.idx)})
		return dst, tr, nil
	}
	return 0, tr, c.errf(e.Pos(), "invalid assignment target %T", e)
}

// storeTarget writes src to an assignable expression using the target refs
// evaluated by evalTargetRefs/loadTarget.
func (c *compiler) storeTarget(e ast.Expr, src int, tr targetRef) error {
	switch t := e.(type) {
	case *ast.Ident:
		return c.storeName(t.Name, src, t.P)
	case *ast.Member:
		c.emit(Instr{Op: OpSetProp, A: int32(tr.obj), B: int32(c.name(t.Name)), C: int32(src), D: int32(c.icSlot())})
		return nil
	case *ast.Index:
		c.emit(Instr{Op: OpSetElem, A: int32(tr.obj), B: int32(tr.idx), C: int32(src)})
		return nil
	}
	return c.errf(e.Pos(), "invalid assignment target %T", e)
}

func (c *compiler) call(n *ast.Call, dst int) error {
	m := c.mark()
	defer c.release(m)
	if n.IsNew {
		callee, err := c.exprToTemp(n.Callee)
		if err != nil {
			return err
		}
		argStart, err := c.argWindow(n.Args)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpNew, A: int32(dst), B: int32(callee), C: int32(argStart), D: int32(len(n.Args))})
		return nil
	}
	if member, ok := n.Callee.(*ast.Member); ok {
		recv, err := c.exprToTemp(member.X)
		if err != nil {
			return err
		}
		argStart, err := c.argWindow(n.Args)
		if err != nil {
			return err
		}
		c.emit(Instr{
			Op: OpCallMethod, A: int32(dst), B: int32(recv),
			C: int32(argStart), D: int32(len(n.Args)), E: int32(c.name(member.Name)),
		})
		return nil
	}
	callee, err := c.exprToTemp(n.Callee)
	if err != nil {
		return err
	}
	argStart, err := c.argWindow(n.Args)
	if err != nil {
		return err
	}
	c.emit(Instr{Op: OpCall, A: int32(dst), B: int32(callee), C: int32(argStart), D: int32(len(n.Args))})
	return nil
}

// argWindow evaluates arguments into a fresh block of consecutive registers.
func (c *compiler) argWindow(args []ast.Expr) (int, error) {
	start := c.allocN(len(args))
	for i, a := range args {
		if err := c.expr(a, start+i); err != nil {
			return 0, err
		}
	}
	return start, nil
}
