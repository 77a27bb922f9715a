package main

import (
	"fmt"
	"strconv"
	"strings"
)

// The program generator. A generated program is nFuncs small loop functions
// (trip count genTrip) plus a run() that calls each of them callsPerRun
// times, so the profile is flat: no function is hotter than another and
// compile work scales with nFuncs.
//
// The seed chooses which function gets which shape and the literal
// constants — never the shape multiset, a trip count or a branch direction —
// so programs of one size cost nearly the same modeled cycles and host time
// under every seed. That is what keeps the spread
// between seeds below the benchmark's bounds while the texts still differ.

// genTrip is the trip count of every generated loop. Sizing: at 16 (and 24
// calls per op) the machine took 54% of a cold_wide op and compile plus
// front-end 37%; at 8 (and 28 calls, still past the FTL threshold of
// invocations + back edges/16 ≥ 40) they take 41% and 51%.
const genTrip = 8

// shapes are the loop bodies the paper's check classes come from: array
// bounds checks, int32 overflow checks, property (shape) checks, unboxed
// double arithmetic, and allocation inside the loop. %[1]d is the function
// index, %[2]d and %[3]d are seeded constants in [1, 97], TRIP is genTrip.
var shapes = []struct{ global, fn string }{
	{ // array
		"var A%[1]d = []; for (var i = 0; i < 16; i++) A%[1]d[i] = (i * %[2]d) & 255;\n",
		"function f%[1]d(x) {\n  var s = 0;\n  for (var i = 0; i < TRIP; i++) {\n    A%[1]d[i] = (A%[1]d[i] + %[3]d + x) & 1023;\n    s = s + A%[1]d[i];\n  }\n  return s;\n}\n",
	},
	{ // int-overflow: adds that stay below 2^31, so the checks run and pass
		"",
		"function f%[1]d(x) {\n  var s = 1073741000 + %[2]d;\n  for (var i = 0; i < TRIP; i++) {\n    s = s + i * %[3]d + x;\n    s = s - (s >> 4);\n  }\n  return s;\n}\n",
	},
	{ // property
		"var O%[1]d = {a: %[2]d, b: %[3]d, c: 0};\n",
		"function f%[1]d(x) {\n  var o = O%[1]d;\n  for (var i = 0; i < TRIP; i++) {\n    o.a = (o.a + o.b + i) & 65535;\n    o.c = o.c ^ (o.a + x);\n  }\n  return o.a + o.c;\n}\n",
	},
	{ // double
		"",
		"function f%[1]d(x) {\n  var s = %[2]d.5;\n  for (var i = 0; i < TRIP; i++) {\n    s = s * 0.75 + i * %[3]d.25 + x;\n  }\n  return s;\n}\n",
	},
	{ // alloc
		"",
		"function f%[1]d(x) {\n  var s = 0;\n  for (var i = 0; i < TRIP; i++) {\n    var p = {x: i + x, y: %[2]d};\n    var q = [p.x, %[3]d];\n    s = s + p.y + q[0] + q[1];\n  }\n  return s;\n}\n",
	},
}

// genProgram renders a program of nFuncs functions whose run() calls each
// one callsPerRun times. Equal arguments give byte-identical text.
func genProgram(seed int64, nFuncs, callsPerRun int) string {
	r := newRand(seed)
	// The shape multiset depends on nFuncs alone; the seed shuffles which
	// function gets which shape.
	kinds := make([]int, nFuncs)
	for i := range kinds {
		kinds[i] = i % len(shapes)
	}
	r.Shuffle(nFuncs, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var globals, funcs, calls strings.Builder
	for i, kind := range kinds {
		sh := shapes[kind]
		fn := strings.ReplaceAll(sh.fn, "TRIP", strconv.Itoa(genTrip))
		c1, c2 := 1+r.Intn(97), 1+r.Intn(97)
		if sh.global != "" {
			fmt.Fprintf(&globals, sh.global, i, c1, c2)
		}
		fmt.Fprintf(&funcs, fn, i, c1, c2)
		fmt.Fprintf(&calls, "  s = s + f%d(x);\n", i)
	}
	// The calls are straight-line (repeated, not looped) so run() itself has
	// no back edge and no transaction of its own around the callees.
	return fmt.Sprintf("// generated: seed=%d funcs=%d\n%s%svar CALLS = 0;\nfunction run() {\n  CALLS = CALLS + 1;\n  var x = CALLS & 7;\n  var s = 0;\n%s  return s + CALLS;\n}\n",
		seed, nFuncs, globals.String(), funcs.String(), strings.Repeat(calls.String(), callsPerRun))
}
