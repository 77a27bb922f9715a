package value

import "math"

// MathFunc is one numeric Math builtin.
type MathFunc struct {
	Name string
	// Arity is the argument count of the inlined intrinsic. A variadic
	// builtin (min, max) folds Eval over all its arguments from Unit.
	Arity    int
	Variadic bool
	Unit     float64
	Eval     func(a, b float64) float64
	// Weight is the inlined intrinsic's modeled x86-64 instruction count:
	// transcendentals cost more than rounding, as libm's do.
	Weight int64
}

// MathFuncs is the engine's one Math table. The VM installs the Math
// object's natives from it in this order, the IR builder inlines exactly its
// entries as intrinsics, and the machine evaluates and charges an intrinsic
// through its entry — so compiled code computes what the builtin computes.
var MathFuncs = []MathFunc{
	{Name: "abs", Arity: 1, Eval: unary(math.Abs), Weight: 3},
	{Name: "floor", Arity: 1, Eval: unary(math.Floor), Weight: 4},
	{Name: "ceil", Arity: 1, Eval: unary(math.Ceil), Weight: 4},
	{Name: "sqrt", Arity: 1, Eval: unary(math.Sqrt), Weight: 16},
	{Name: "sin", Arity: 1, Eval: unary(math.Sin), Weight: 45},
	{Name: "cos", Arity: 1, Eval: unary(math.Cos), Weight: 45},
	{Name: "tan", Arity: 1, Eval: unary(math.Tan), Weight: 45},
	{Name: "asin", Arity: 1, Eval: unary(math.Asin), Weight: 50},
	{Name: "acos", Arity: 1, Eval: unary(math.Acos), Weight: 50},
	{Name: "atan", Arity: 1, Eval: unary(math.Atan), Weight: 50},
	{Name: "exp", Arity: 1, Eval: unary(math.Exp), Weight: 40},
	{Name: "log", Arity: 1, Eval: unary(math.Log), Weight: 40},
	{Name: "round", Arity: 1, Eval: func(a, _ float64) float64 { return math.Floor(a + 0.5) }, Weight: 4},
	{Name: "pow", Arity: 2, Eval: math.Pow, Weight: 40},
	{Name: "atan2", Arity: 2, Eval: math.Atan2, Weight: 50},
	{Name: "min", Arity: 2, Variadic: true, Unit: math.Inf(1), Eval: math.Min, Weight: 3},
	{Name: "max", Arity: 2, Variadic: true, Unit: math.Inf(-1), Eval: math.Max, Weight: 3},
}

var mathIndex = func() map[string]int {
	m := make(map[string]int, len(MathFuncs))
	for i, f := range MathFuncs {
		m[f.Name] = i
	}
	return m
}()

// MathIndex returns the index of name's entry in MathFuncs, or -1. An
// inlined intrinsic carries this index, so executing it needs no lookup.
func MathIndex(name string) int {
	if i, ok := mathIndex[name]; ok {
		return i
	}
	return -1
}

func unary(f func(float64) float64) func(a, b float64) float64 {
	return func(a, _ float64) float64 { return f(a) }
}

// Call runs the builtin on a call's arguments; missing ones are undefined.
func (f *MathFunc) Call(args []Value) Value {
	if f.Variadic {
		r := f.Unit
		for _, a := range args {
			r = f.Eval(r, a.ToNumber())
		}
		return Number(r)
	}
	var x [2]float64
	for i := range f.Arity {
		a := Undefined()
		if i < len(args) {
			a = args[i]
		}
		x[i] = a.ToNumber()
	}
	return Number(f.Eval(x[0], x[1]))
}
