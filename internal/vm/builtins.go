package vm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"nomap/internal/bytecode"
	"nomap/internal/stats"
	"nomap/internal/value"
)

// Builtins: the Math object, Array/Object/String constructors, print, and
// the per-class method tables dispatched by InvokeMethod. All of this
// executes as "C runtime code" — attributed to the NoFTL instruction class,
// like the paper's runtime calls.

// maxArrayLength caps Array(n): its n holes are allocated at once, so a
// valid JavaScript length above this (up to 2^32-1, ~160 GiB of values)
// raises the same RangeError instead of exhausting the host's memory.
// Arrays still grow past it element by element.
const maxArrayLength = 1 << 20

func (vm *VM) installBuiltins() {
	g := vm.globals

	mathObj := value.NewObject(vm.shapes, 0)
	mathObj.Class = "Math"
	for i := range value.MathFuncs {
		mf := &value.MathFuncs[i]
		mathObj.Set(mf.Name, vm.native(mf.Name, func(this value.Value, args []value.Value) (value.Value, error) {
			return mf.Call(args), nil
		}))
	}
	mathObj.Set("random", vm.native("random", func(this value.Value, args []value.Value) (value.Value, error) {
		return value.Double(vm.nextRandom()), nil
	}))
	mathObj.Set("PI", value.Double(math.Pi))
	mathObj.Set("E", value.Double(math.E))
	g.Set("Math", value.Obj(mathObj))

	printFn := &value.Function{
		Name:        "print",
		Irrevocable: true, // I/O aborts transactions (paper §V-A)
		Native: func(this value.Value, args []value.Value) (value.Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.ToStringValue()
			}
			vm.Output = append(vm.Output, strings.Join(parts, " "))
			return value.Undefined(), nil
		},
	}
	vm.registerNative(printFn)
	g.Set("print", value.Obj(value.NewFunctionObject(vm.shapes, printFn)))

	g.Set("Array", vm.native("Array", func(this value.Value, args []value.Value) (value.Value, error) {
		if len(args) == 1 && args[0].IsNumber() {
			n := args[0].ToUint32()
			if float64(n) != args[0].ToNumber() || n > maxArrayLength {
				return value.Undefined(), nativeErrorf("RangeError: Invalid array length")
			}
			return value.Obj(value.NewArray(vm.shapes, int(n))), nil
		}
		a := value.NewArray(vm.shapes, 0)
		for _, v := range args {
			a.Push(v)
		}
		return value.Obj(a), nil
	}))
	g.Set("Object", vm.native("Object", func(this value.Value, args []value.Value) (value.Value, error) {
		return value.Obj(value.NewObject(vm.shapes, 0)), nil
	}))

	stringObj := value.NewObject(vm.shapes, 0)
	stringObj.Class = "String"
	stringObj.Set("fromCharCode", vm.native("fromCharCode", func(this value.Value, args []value.Value) (value.Value, error) {
		var b strings.Builder
		for _, a := range args {
			b.WriteRune(rune(a.ToInt32() & 0xFFFF))
		}
		return value.Str(b.String()), nil
	}))
	g.Set("String", value.Obj(stringObj))

	g.Set("isNaN", vm.native("isNaN", func(this value.Value, args []value.Value) (value.Value, error) {
		return value.Boolean(math.IsNaN(arg(args, 0).ToNumber())), nil
	}))
	g.Set("isFinite", vm.native("isFinite", func(this value.Value, args []value.Value) (value.Value, error) {
		f := arg(args, 0).ToNumber()
		return value.Boolean(!math.IsNaN(f) && !math.IsInf(f, 0)), nil
	}))
	g.Set("parseInt", vm.native("parseInt", func(this value.Value, args []value.Value) (value.Value, error) {
		s := strings.TrimSpace(arg(args, 0).ToStringValue())
		radix := 10
		if len(args) > 1 && !args[1].IsUndefined() {
			radix = int(args[1].ToInt32())
		}
		if radix == 16 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
			s = s[2:]
		} else if radix == 10 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
			s = s[2:]
			radix = 16
		}
		neg := false
		if strings.HasPrefix(s, "-") {
			neg = true
			s = s[1:]
		} else if strings.HasPrefix(s, "+") {
			s = s[1:]
		}
		end := 0
		for end < len(s) {
			if _, err := strconv.ParseInt(s[end:end+1], radix, 8); err != nil {
				break
			}
			end++
		}
		if end == 0 {
			return value.Double(math.NaN()), nil
		}
		n, err := strconv.ParseInt(s[:end], radix, 64)
		if err != nil {
			f, err2 := strconv.ParseFloat(s[:end], 64)
			if err2 != nil {
				return value.Double(math.NaN()), nil
			}
			n = int64(f)
		}
		if neg {
			n = -n
		}
		return value.Number(float64(n)), nil
	}))
	g.Set("parseFloat", vm.native("parseFloat", func(this value.Value, args []value.Value) (value.Value, error) {
		return value.Number(value.Str(arg(args, 0).ToStringValue()).ToNumber()), nil
	}))
	g.Set("Infinity", value.Double(math.Inf(1)))
	g.Set("NaN", value.Double(math.NaN()))
	g.Set("undefined", value.Undefined())
}

// nativeErrorf returns an error a builtin raises itself. It is tagged as the
// builtin's own (bytecode.NativeError), so the tier that called the builtin
// attributes it to the call site, while an error merely passing through a
// builtin — a callback's RuntimeError, an interrupt, a call-depth overflow,
// an irrevocable-operation abort — keeps its own form.
func nativeErrorf(format string, a ...any) error {
	return &bytecode.NativeError{Err: fmt.Errorf(format, a...)}
}

func (vm *VM) native(name string, f func(value.Value, []value.Value) (value.Value, error)) value.Value {
	fn := &value.Function{Name: name, Native: f}
	vm.registerNative(fn)
	return value.Obj(value.NewFunctionObject(vm.shapes, fn))
}

// registerNative assigns the builtin its creation-order identity (see
// NativeID). installBuiltins is deterministic, so identities line up across
// VMs — the property compiled-code relocation relies on.
func (vm *VM) registerNative(fn *value.Function) {
	vm.nativeIDs[fn] = len(vm.natives)
	vm.natives = append(vm.natives, fn)
}

func arg(args []value.Value, i int) value.Value {
	if i < len(args) {
		return args[i]
	}
	return value.Undefined()
}

// nextRandom is a deterministic xorshift64* generator in [0,1) so runs are
// reproducible (the paper's SunSpider/Kraken harnesses seed their PRNGs too).
func (vm *VM) nextRandom() float64 {
	x := vm.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	vm.rng = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// InvokeMethod performs recv.name(args): own callable properties first, then
// the builtin "prototype" methods per receiver class.
func (vm *VM) InvokeMethod(recv value.Value, name string, args []value.Value) (value.Value, error) {
	vm.counters.AddInstr(stats.NoFTL, 8)
	vm.counters.AddCycles(8, vm.InTransaction())
	switch recv.Kind() {
	case value.KindObject:
		o := recv.Object()
		if m := o.Get(name); m.IsCallable() {
			return vm.Call(m.Object().Fn, recv, args)
		}
		if o.IsArray {
			return vm.arrayMethod(o, name, args)
		}
		return value.Undefined(), nativeErrorf("object has no method %q", name)
	case value.KindString:
		return vm.stringMethod(recv.StringVal(), name, args)
	case value.KindInt32, value.KindDouble:
		return vm.numberMethod(recv, name, args)
	default:
		return value.Undefined(), nativeErrorf("cannot call method %q on %s", name, recv.TypeOf())
	}
}

func (vm *VM) arrayMethod(o *value.Object, name string, args []value.Value) (value.Value, error) {
	cost := int64(12 + 2*o.Length)
	vm.counters.AddInstr(stats.NoFTL, cost)
	vm.counters.AddCycles(cost, vm.InTransaction())
	switch name {
	case "push":
		n := 0
		for _, a := range args {
			n = o.Push(a)
		}
		if len(args) == 0 {
			n = o.Length
		}
		return value.Int(int32(n)), nil
	case "pop":
		return o.Pop(), nil
	case "shift":
		if o.Length == 0 {
			return value.Undefined(), nil
		}
		first := o.GetElement(0)
		for i := 1; i < o.Length; i++ {
			o.SetElement(i-1, o.ElementRaw(i))
		}
		o.SetLength(o.Length - 1)
		return first, nil
	case "join":
		sep := ","
		if len(args) > 0 && !args[0].IsUndefined() {
			sep = args[0].ToStringValue()
		}
		parts := make([]string, o.Length)
		for i := 0; i < o.Length; i++ {
			e := o.GetElement(i)
			if e.IsUndefined() || e.IsNull() {
				parts[i] = ""
			} else {
				parts[i] = e.ToStringValue()
			}
		}
		return value.Str(strings.Join(parts, sep)), nil
	case "slice":
		start, end := sliceBounds(args, o.Length)
		out := value.NewArray(vm.shapes, 0)
		for i := start; i < end; i++ {
			out.Push(o.GetElement(i))
		}
		return value.Obj(out), nil
	case "concat":
		out := value.NewArray(vm.shapes, 0)
		for i := 0; i < o.Length; i++ {
			out.Push(o.GetElement(i))
		}
		for _, a := range args {
			if ao := a.Object(); ao != nil && ao.IsArray {
				for i := 0; i < ao.Length; i++ {
					out.Push(ao.GetElement(i))
				}
			} else {
				out.Push(a)
			}
		}
		return value.Obj(out), nil
	case "reverse":
		for i, j := 0, o.Length-1; i < j; i, j = i+1, j-1 {
			a, b := o.ElementRaw(i), o.ElementRaw(j)
			o.SetElement(i, b)
			o.SetElement(j, a)
		}
		return value.Obj(o), nil
	case "indexOf":
		target := arg(args, 0)
		for i := 0; i < o.Length; i++ {
			if value.StrictEquals(o.GetElement(i), target) {
				return value.Int(int32(i)), nil
			}
		}
		return value.Int(-1), nil
	case "sort":
		return vm.arraySort(o, args)
	case "lastIndexOf":
		target := arg(args, 0)
		for i := o.Length - 1; i >= 0; i-- {
			if value.StrictEquals(o.GetElement(i), target) {
				return value.Int(int32(i)), nil
			}
		}
		return value.Int(-1), nil
	case "fill":
		v := arg(args, 0)
		start, end := 0, o.Length
		if len(args) > 1 {
			start, end = sliceBounds(args[1:], o.Length)
		}
		for i := start; i < end; i++ {
			o.SetElement(i, v)
		}
		return value.Obj(o), nil
	case "forEach", "map", "filter", "every", "some":
		return vm.arrayIterate(o, name, args)
	case "reduce":
		return vm.arrayReduce(o, args)
	default:
		return value.Undefined(), nativeErrorf("array has no method %q", name)
	}
}

// arrayIterate implements the callback-driven iteration methods. The
// callbacks run through the normal tiered call path, so a hot map() lambda
// still climbs to Baseline (closures are pinned there).
func (vm *VM) arrayIterate(o *value.Object, name string, args []value.Value) (value.Value, error) {
	cb := arg(args, 0)
	if !cb.IsCallable() {
		return value.Undefined(), nativeErrorf("%s requires a function", name)
	}
	fn := cb.Object().Fn
	var out *value.Object
	if name == "map" || name == "filter" {
		out = value.NewArray(vm.shapes, 0)
	}
	for i := 0; i < o.Length; i++ {
		elem := o.GetElement(i)
		r, err := vm.Call(fn, value.Undefined(), []value.Value{elem, value.Int(int32(i)), value.Obj(o)})
		if err != nil {
			return value.Undefined(), err
		}
		switch name {
		case "map":
			out.Push(r)
		case "filter":
			if r.ToBoolean() {
				out.Push(elem)
			}
		case "every":
			if !r.ToBoolean() {
				return value.Boolean(false), nil
			}
		case "some":
			if r.ToBoolean() {
				return value.Boolean(true), nil
			}
		}
	}
	switch name {
	case "map", "filter":
		return value.Obj(out), nil
	case "every":
		return value.Boolean(true), nil
	case "some":
		return value.Boolean(false), nil
	}
	return value.Undefined(), nil
}

func (vm *VM) arrayReduce(o *value.Object, args []value.Value) (value.Value, error) {
	cb := arg(args, 0)
	if !cb.IsCallable() {
		return value.Undefined(), nativeErrorf("reduce requires a function")
	}
	fn := cb.Object().Fn
	i := 0
	var acc value.Value
	if len(args) > 1 {
		acc = args[1]
	} else {
		if o.Length == 0 {
			return value.Undefined(), nativeErrorf("reduce of empty array with no initial value")
		}
		acc = o.GetElement(0)
		i = 1
	}
	for ; i < o.Length; i++ {
		r, err := vm.Call(fn, value.Undefined(), []value.Value{acc, o.GetElement(i), value.Int(int32(i)), value.Obj(o)})
		if err != nil {
			return value.Undefined(), err
		}
		acc = r
	}
	return acc, nil
}

func (vm *VM) arraySort(o *value.Object, args []value.Value) (value.Value, error) {
	elems := make([]value.Value, 0, o.Length)
	for i := 0; i < o.Length; i++ {
		e := o.ElementRaw(i)
		if !e.IsHole() {
			elems = append(elems, e)
		}
	}
	var sortErr error
	if len(args) > 0 && args[0].IsCallable() {
		cmp := args[0].Object().Fn
		sort.SliceStable(elems, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			r, err := vm.Call(cmp, value.Undefined(), []value.Value{elems[i], elems[j]})
			if err != nil {
				sortErr = err
				return false
			}
			return r.ToNumber() < 0
		})
	} else {
		sort.SliceStable(elems, func(i, j int) bool {
			return elems[i].ToStringValue() < elems[j].ToStringValue()
		})
	}
	if sortErr != nil {
		return value.Undefined(), sortErr
	}
	for i, e := range elems {
		o.SetElement(i, e)
	}
	return value.Obj(o), nil
}

func sliceBounds(args []value.Value, length int) (int, int) {
	start, end := 0, length
	if len(args) > 0 && !args[0].IsUndefined() {
		start = int(args[0].ToInt32())
		if start < 0 {
			start += length
		}
	}
	if len(args) > 1 && !args[1].IsUndefined() {
		end = int(args[1].ToInt32())
		if end < 0 {
			end += length
		}
	}
	start = clamp(start, 0, length)
	end = clamp(end, start, length)
	return start, end
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (vm *VM) stringMethod(s string, name string, args []value.Value) (value.Value, error) {
	cost := int64(10 + len(s)/8)
	vm.counters.AddInstr(stats.NoFTL, cost)
	vm.counters.AddCycles(cost, vm.InTransaction())
	switch name {
	case "charCodeAt":
		i := int(arg(args, 0).ToInt32())
		if i < 0 || i >= len(s) {
			return value.Double(math.NaN()), nil
		}
		return value.Int(int32(s[i])), nil
	case "charAt":
		i := int(arg(args, 0).ToInt32())
		if i < 0 || i >= len(s) {
			return value.Str(""), nil
		}
		return value.Str(s[i : i+1]), nil
	case "indexOf":
		from := 0
		if len(args) > 1 {
			from = clamp(int(args[1].ToInt32()), 0, len(s))
		}
		idx := strings.Index(s[from:], arg(args, 0).ToStringValue())
		if idx < 0 {
			return value.Int(-1), nil
		}
		return value.Int(int32(idx + from)), nil
	case "substring":
		a, b := sliceBounds(args, len(s))
		if len(args) > 1 {
			ai, bi := int(arg(args, 0).ToInt32()), int(arg(args, 1).ToInt32())
			if ai > bi {
				ai, bi = bi, ai
			}
			a, b = clamp(ai, 0, len(s)), clamp(bi, 0, len(s))
		}
		return value.Str(s[a:b]), nil
	case "substr":
		start := clamp(int(arg(args, 0).ToInt32()), 0, len(s))
		n := len(s) - start
		if len(args) > 1 && !args[1].IsUndefined() {
			n = clamp(int(args[1].ToInt32()), 0, len(s)-start)
		}
		return value.Str(s[start : start+n]), nil
	case "slice":
		a, b := sliceBounds(args, len(s))
		return value.Str(s[a:b]), nil
	case "toUpperCase":
		return value.Str(strings.ToUpper(s)), nil
	case "toLowerCase":
		return value.Str(strings.ToLower(s)), nil
	case "split":
		sep := arg(args, 0)
		out := value.NewArray(vm.shapes, 0)
		if sep.IsUndefined() {
			out.Push(value.Str(s))
			return value.Obj(out), nil
		}
		for _, part := range strings.Split(s, sep.ToStringValue()) {
			out.Push(value.Str(part))
		}
		return value.Obj(out), nil
	case "concat":
		for _, a := range args {
			s += a.ToStringValue()
		}
		return value.Str(s), nil
	case "replace":
		// Plain-string replacement of the first occurrence (no regexps).
		return value.Str(strings.Replace(s, arg(args, 0).ToStringValue(), arg(args, 1).ToStringValue(), 1)), nil
	case "trim":
		return value.Str(strings.TrimSpace(s)), nil
	case "startsWith":
		return value.Boolean(strings.HasPrefix(s, arg(args, 0).ToStringValue())), nil
	case "endsWith":
		return value.Boolean(strings.HasSuffix(s, arg(args, 0).ToStringValue())), nil
	case "includes":
		return value.Boolean(strings.Contains(s, arg(args, 0).ToStringValue())), nil
	case "repeat":
		n := int(arg(args, 0).ToInt32())
		if n < 0 {
			return value.Undefined(), nativeErrorf("repeat count must be non-negative")
		}
		if n*len(s) > 1<<22 {
			return value.Undefined(), nativeErrorf("repeat result too large")
		}
		return value.Str(strings.Repeat(s, n)), nil
	case "toString":
		return value.Str(s), nil
	default:
		return value.Undefined(), nativeErrorf("string has no method %q", name)
	}
}

func (vm *VM) numberMethod(n value.Value, name string, args []value.Value) (value.Value, error) {
	vm.counters.AddInstr(stats.NoFTL, 12)
	vm.counters.AddCycles(12, vm.InTransaction())
	switch name {
	case "toString":
		radix := 10
		if len(args) > 0 && !args[0].IsUndefined() {
			radix = int(args[0].ToInt32())
		}
		if radix == 10 {
			return value.Str(n.ToStringValue()), nil
		}
		return value.Str(strconv.FormatInt(int64(n.ToNumber()), radix)), nil
	case "toFixed":
		d := int(arg(args, 0).ToInt32())
		return value.Str(strconv.FormatFloat(n.ToNumber(), 'f', d, 64)), nil
	default:
		return value.Undefined(), nativeErrorf("number has no method %q", name)
	}
}
