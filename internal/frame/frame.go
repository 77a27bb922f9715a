// Package frame defines the single materialized activation-record format
// shared by every tier transfer in the engine. Before it existed the same
// state was encoded three ways: the interpreter's resume frame, the
// machine's stack-map materialization (RecoverState), and the OSR-entry
// hand-off each grew their own {pc, register file} pair. A Frame is all of
// them:
//
//   - OSR exit (deopt/abort): the machine materializes a Frame from a Stack
//     Map Point (or the transaction's recovery entry) and the Baseline
//     interpreter resumes it directly.
//
//   - OSR entry: the interpreter hands its live Frame at a hot loop header
//     to the JIT, which binds the frame's locals to the OSR artifact's
//     entry block and continues in optimized code.
//
// The engine's bytecode is register-based, so Locals subsumes the operand
// stack: every partially evaluated expression lives in a numbered register
// and the register file alone reconstructs the activation.
//
// A Frame also carries accumulated profile deltas (BackEdges) across tier
// transfers, so loop-trip counting stays exact no matter how many times
// execution bounces between tiers mid-loop: the machine counts back edges
// locally (squashing counts from aborted transactions, whose iterations the
// Baseline tier re-executes and re-counts) and the receiving tier folds the
// delta into the function profile.
package frame

import (
	"nomap/internal/bytecode"
	"nomap/internal/value"
)

// Frame is one materialized activation record, positioned at PC with the
// full register file in Locals. It is valid to resume in any bytecode tier
// and to enter optimized code through an OSR-entry artifact compiled for
// Fn at loop header PC.
type Frame struct {
	Fn *bytecode.Function
	PC int
	// Locals is the register file in the one-word NaN-boxed representation —
	// the same representation every tier stores, so tier transfers copy words
	// instead of re-boxing. String/object boxes index the isolate's handle
	// slab (value.Handles).
	Locals []value.Boxed
	Env    *value.Environment

	// BackEdges is the number of loop back edges taken on behalf of this
	// frame that have not yet been folded into the function profile. The
	// tier that next owns the frame adds it to BackEdgeCount and zeroes it.
	BackEdges int64

	// Caller links to the next-outer logical frame when this frame was
	// reconstructed from inlined optimized code: a deopt inside a flattened
	// callee materializes the callee frame plus every caller up to the
	// compiled function's own frame. The resume loop runs this frame to its
	// return, stores the result in Caller.Locals[RetReg], advances Caller
	// past the call instruction (Caller.PC is the call's pc), and resumes
	// the caller. Nil for ordinary single-frame transfers.
	Caller *Frame
	// RetReg is the caller register receiving this frame's result
	// (meaningful only when Caller is non-nil).
	RetReg int
	// Function is the function object this frame executes, set for
	// reconstructed inline frames so the resuming tier can allocate the
	// callee environment; nil otherwise (the resuming caller already knows
	// its own function).
	Function *value.Function
	// InlineIndex is the machine-internal inline-frame slot this frame's
	// back edges accumulate under (0 = the compiled function's root frame);
	// the machine uses it to redistribute surviving back-edge counts across
	// the reconstructed chain on aborts.
	InlineIndex int
}
