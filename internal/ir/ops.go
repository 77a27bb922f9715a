package ir

import "fmt"

// Op is an IR opcode.
type Op uint8

const (
	OpInvalid Op = iota

	// Values.
	OpConst    // AuxVal
	OpParam    // AuxInt = parameter index
	OpOSRLocal // AuxInt = bytecode register index; bound from the OSR-entry frame

	// Int32 arithmetic. Add/Sub/Mul may overflow: they set the (sticky)
	// overflow flag and are guarded by OpCheckOverflow unless NoMap's SOF
	// pass removed the guard (paper §IV-C2).
	OpAddInt
	OpSubInt
	OpMulInt
	OpNegInt
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr
	OpUShr // uint32 result; guarded by CheckUint32 when speculated int32

	// Double arithmetic.
	OpAddDouble
	OpSubDouble
	OpMulDouble
	OpDivDouble
	OpModDouble
	OpNegDouble

	// Conversions (pure).
	OpIntToDouble
	OpNumberToDouble // checked-number (int32 or double) to double
	OpTruncDouble    // ECMAScript ToInt32 on a checked number
	OpUint32ToDouble // reinterpret an int32 as uint32 and widen (>>> sites that overflow)
	OpToBool         // JS truthiness of any value
	OpNormalizeHole  // hole -> undefined after a raw element load

	// Comparisons. AuxInt holds a value.Cmp code.
	OpCmpInt
	OpCmpDouble
	OpStrictEqGeneric // pointer/value strict equality fast path
	OpBoolNot         // negate a bool

	// OpMathOp is an inlined Math.* intrinsic (AuxStr = name, AuxInt = its
	// index in value.MathFuncs); the FTL tier emits it after a callee check
	// proves the target is the builtin.
	OpMathOp

	// Checks (side-effect-only; Deopt non-nil = SMP, nil = tx abort).
	OpCheckInt32    // arg generic; class Type
	OpCheckNumber   // arg generic; class Type
	OpCheckShape    // arg obj; Shape; class Property
	OpCheckArray    // arg generic; class Type
	OpCheckBounds   // args (array, index); class Bounds
	OpCheckNonNeg   // arg index; class Bounds (append stores: growth is legal, negatives are not)
	OpCheckOverflow // arg int arith result; class Overflow
	OpCheckUint32   // arg UShr result; class Overflow
	OpCheckHole     // arg raw element; class Other
	OpCheckCallee   // arg callee value; Callee; class Other

	// Polymorphic dispatch (internal/ic plans). HasShape/HasCallee are the
	// non-deopting predicates of a dispatch tree's guard chain; Transition is
	// a speculated shape transition (property add) executed under a matching
	// shape guard.
	OpHasShape   // (obj) -> bool; Shape = candidate shape
	OpHasCallee  // (callee) -> bool; Callee = candidate target
	OpTransition // (obj, val); AuxStr = property name, AuxInt = new slot offset, Shape = post-transition shape

	// Memory.
	OpLoadSlot    // (obj); AuxInt = slot offset
	OpStoreSlot   // (obj, val); AuxInt = slot offset
	OpLoadElem    // (arr, idx) raw element (may be hole)
	OpStoreElem   // (arr, idx, val) in-bounds store
	OpLoadLength  // (arr)
	OpLoadGlobal  // AuxStr = name (cached global slot)
	OpStoreGlobal // (val); AuxStr

	// Calls.
	OpCallDirect  // (args...); Callee = known user function
	OpCallRuntime // (args...); AuxStr = runtime entry name, AuxInt = aux

	// SSA.
	OpPhi

	// Transactions (inserted by NoMap, paper §IV-B, §V-C).
	OpTxBegin // Deopt = recovery entry in Baseline
	OpTxEnd
	OpTxTile // loop-backedge commit point; Deopt = recovery entry

	numIROps
)

type opInfo struct {
	name string
	// pure: no memory access, no side effects; freely CSE/hoistable.
	pure bool
	// memRead / memWrite: accesses the JS heap.
	memRead  bool
	memWrite bool
	// call: opaque call (full barrier).
	call bool
	// check: guarded speculation with Deopt/abort semantics.
	check bool
}

var opInfos = [numIROps]opInfo{
	OpInvalid:         {name: "invalid"},
	OpConst:           {name: "const", pure: true},
	OpParam:           {name: "param", pure: true},
	OpOSRLocal:        {name: "osrlocal", pure: true},
	OpAddInt:          {name: "addi", pure: true},
	OpSubInt:          {name: "subi", pure: true},
	OpMulInt:          {name: "muli", pure: true},
	OpNegInt:          {name: "negi", pure: true},
	OpBitAnd:          {name: "and", pure: true},
	OpBitOr:           {name: "or", pure: true},
	OpBitXor:          {name: "xor", pure: true},
	OpShl:             {name: "shl", pure: true},
	OpShr:             {name: "shr", pure: true},
	OpUShr:            {name: "ushr", pure: true},
	OpAddDouble:       {name: "addf", pure: true},
	OpSubDouble:       {name: "subf", pure: true},
	OpMulDouble:       {name: "mulf", pure: true},
	OpDivDouble:       {name: "divf", pure: true},
	OpModDouble:       {name: "modf", pure: true},
	OpNegDouble:       {name: "negf", pure: true},
	OpIntToDouble:     {name: "i2f", pure: true},
	OpNumberToDouble:  {name: "n2f", pure: true},
	OpTruncDouble:     {name: "trunc", pure: true},
	OpUint32ToDouble:  {name: "u2f", pure: true},
	OpToBool:          {name: "tobool", pure: true},
	OpNormalizeHole:   {name: "dehole", pure: true},
	OpCmpInt:          {name: "cmpi", pure: true},
	OpCmpDouble:       {name: "cmpf", pure: true},
	OpStrictEqGeneric: {name: "seq", pure: true},
	OpBoolNot:         {name: "bnot", pure: true},
	OpMathOp:          {name: "math", pure: true},
	OpCheckInt32:      {name: "chki32", check: true},
	OpCheckNumber:     {name: "chknum", check: true},
	OpCheckShape:      {name: "chkshape", check: true, memRead: true},
	OpCheckArray:      {name: "chkarr", check: true},
	OpCheckBounds:     {name: "chkbounds", check: true, memRead: true},
	OpCheckNonNeg:     {name: "chknonneg", check: true},
	OpCheckOverflow:   {name: "chkovf", check: true},
	OpCheckUint32:     {name: "chku32", check: true},
	OpCheckHole:       {name: "chkhole", check: true},
	OpCheckCallee:     {name: "chkcallee", check: true},
	OpHasShape:        {name: "hasshape", memRead: true},
	OpHasCallee:       {name: "hascallee", pure: true},
	OpTransition:      {name: "transition", memWrite: true},
	OpLoadSlot:        {name: "ldslot", memRead: true},
	OpStoreSlot:       {name: "stslot", memWrite: true},
	OpLoadElem:        {name: "ldelem", memRead: true},
	OpStoreElem:       {name: "stelem", memWrite: true},
	OpLoadLength:      {name: "ldlen", memRead: true},
	OpLoadGlobal:      {name: "ldg", memRead: true},
	OpStoreGlobal:     {name: "stg", memWrite: true},
	OpCallDirect:      {name: "call", call: true},
	OpCallRuntime:     {name: "callrt", call: true},
	OpPhi:             {name: "phi", pure: true},
	OpTxBegin:         {name: "txbegin", call: true},
	OpTxEnd:           {name: "txend", call: true},
	OpTxTile:          {name: "txtile", call: true},
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opInfos) && opInfos[o].name != "" {
		return opInfos[o].name
	}
	return fmt.Sprintf("irop(%d)", uint8(o))
}

// IsPure reports no memory access and no side effects.
func (o Op) IsPure() bool { return opInfos[o].pure }

// IsCheck reports a speculation check.
func (o Op) IsCheck() bool { return opInfos[o].check }

// ReadsMemory reports the op observes the JS heap (checks on mutable object
// state — shape, array length — count as reads).
func (o Op) ReadsMemory() bool { return opInfos[o].memRead }

// WritesMemory reports the op mutates the JS heap.
func (o Op) WritesMemory() bool { return opInfos[o].memWrite }

// IsCall reports an opaque call (full optimization barrier).
func (o Op) IsCall() bool { return opInfos[o].call }

// IsSMP reports whether value v is a Stack Map Point: a check whose failure
// deoptimizes (rather than aborts), or a transaction begin/tile carrying a
// recovery map. SMPs behave like opaque calls for optimization purposes
// (paper §III-A3: FTL cannot move memory accesses across an SMP) — they are
// lowered to patchpoints that conservatively read and write all memory.
func (v *Value) IsSMP() bool {
	if v.Op.IsCheck() {
		return v.Deopt != nil
	}
	return false
}

// IsBarrier reports whether v blocks code motion and memory CSE across it:
// opaque calls, transaction boundaries, and SMP-carrying checks. A check
// converted to an abort is NOT a barrier — that is exactly the optimization
// opportunity NoMap creates (paper §IV-B).
func (v *Value) IsBarrier() bool {
	return v.Op.IsCall() || v.IsSMP()
}
