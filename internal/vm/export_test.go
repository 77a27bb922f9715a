package vm

import (
	"nomap/internal/frame"
	"nomap/internal/value"
)

// CallDepth reports how many calls are in flight.
func (vm *VM) CallDepth() int { return vm.callDepth }

// PoisonActivations fills the activations of depths 0..n-1 with stale state:
// a register file of junk words, a frame mid-function with a caller and
// unfolded back edges, an environment with a live cell, and an argument
// window of strings. A VM whose activations were reused must behave exactly
// like a fresh one, so a run after poisoning has to match a run without.
func (vm *VM) PoisonActivations(n int) {
	stale := value.NewEnvironment(nil, 1)
	stale.Slots[0].V = value.Str("stale cell")
	for len(vm.acts) < n {
		vm.acts = append(vm.acts, new(activation))
	}
	for _, a := range vm.acts[:n] {
		regs := make([]value.Boxed, 64)
		for i := range regs {
			regs[i] = value.BoxInt(-0x5eed)
		}
		a.fr = frame.Frame{PC: 7, Locals: regs, Env: stale, BackEdges: 12345,
			Caller: &frame.Frame{}, RetReg: 3, InlineIndex: 2}
		a.env = *stale
		a.args = make([]value.Value, 16)
		for i := range a.args {
			a.args[i] = value.Str("stale arg")
		}
	}
}

// LendsEnv reports whether e is the embedded environment of one of the VM's
// activations: storage lent for one call, which no closure may capture.
func (vm *VM) LendsEnv(e *value.Environment) bool {
	for _, a := range vm.acts {
		if e == &a.env {
			return true
		}
	}
	return false
}
