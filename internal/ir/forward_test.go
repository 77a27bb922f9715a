package ir_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"nomap/internal/harness"
	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

// runWorkload runs workload id on a fresh engine under arch with the fast
// tier-up policy, so its kernels reach FTL, calling hook after every FTL
// pass.
func runWorkload(t *testing.T, id string, arch vm.Arch, calls int, hook func(pass string, f *ir.Func)) {
	t.Helper()
	w, ok := workloads.ByID(id)
	if !ok {
		t.Fatalf("no workload %s", id)
	}
	cfg := vm.DefaultConfig()
	cfg.Arch = arch
	cfg.Policy = harness.FastPolicy()
	v := vm.New(cfg)
	jit.Attach(v).SetPassHook(hook)
	if _, err := v.Run(w.Source); err != nil {
		t.Fatalf("%s setup: %v", id, err)
	}
	for range calls {
		if _, err := v.CallGlobal("run", value.Int(0)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// A pass that forwards a removed value everywhere but in stack maps leaves
// deopt points naming a value that no longer exists. With the bug planted
// in the forwarding table while one pass runs, the Verify-after-every-pass
// hook must catch it after that pass, and the same run without the bug
// must pass Verify after every pass. The rows cover GVN's duplicates, the
// inliner's calls and ExpandDispatch's placeholders.
func TestGVNSkippedMapForwardFailsVerify(t *testing.T) {
	for _, row := range []struct {
		workload string
		// The bug is planted from the hook after `before` to the hook after
		// `pass`, so it is live only while pass runs.
		before, pass string
	}{
		{"S13", "hoist-type-checks", "gvn"},
		{"C03", "expand-dispatch", "inline"},
		{"P02", "build", "expand-dispatch"},
	} {
		t.Run(row.pass, func(t *testing.T) {
			var clean []string
			runWorkload(t, row.workload, vm.ArchBase, 45, func(pass string, f *ir.Func) {
				if err := ir.Verify(f); err != nil {
					clean = append(clean, fmt.Sprintf("after %s: %v", pass, err))
				}
			})
			if len(clean) > 0 {
				t.Fatalf("clean run fails Verify: %s", clean[0])
			}

			var planted []string
			restore := func() {}
			defer func() { restore() }()
			runWorkload(t, row.workload, vm.ArchBase, 45, func(pass string, f *ir.Func) {
				switch pass {
				case row.before:
					restore = ir.SkipMapForward()
				case row.pass:
					restore()
					if err := ir.Verify(f); err != nil {
						planted = append(planted, err.Error())
					}
				default:
					restore() // a compile that skipped row.pass
				}
			})
			for _, e := range planted {
				if strings.Contains(e, "stack map references dead v") {
					return
				}
			}
			t.Fatalf("planted skipped forward in %s passed Verify (errors: %q)", row.pass, planted)
		})
	}
}

// replaceUses is the eager walk every pass used before the forwarding
// table, kept as its oracle: it rewrites every use of old with new across
// argument lists, block controls, and stack maps with their inline Caller
// chains, visiting a shared Caller map once.
func replaceUses(f *ir.Func, old, new *ir.Value) {
	var seen map[*ir.StackMap]bool
	replaceInMap := func(sm *ir.StackMap) {
		for ; sm != nil; sm = sm.Caller {
			if seen[sm] {
				return
			}
			if sm.Caller != nil {
				if seen == nil {
					seen = make(map[*ir.StackMap]bool)
				}
				seen[sm] = true
			}
			for i := range sm.Entries {
				if sm.Entries[i].Val == old {
					sm.Entries[i].Val = new
				}
			}
		}
	}
	for _, blk := range f.Blocks {
		for _, v := range blk.Values {
			for i, a := range v.Args {
				if a == old {
					v.Args[i] = new
				}
			}
			replaceInMap(v.Deopt)
		}
		if blk.Control == old {
			blk.Control = new
		}
		replaceInMap(blk.EntryState)
	}
}

// eachMap calls fn on every Deopt and EntryState map of f and each map of
// its Caller chain, with the map's depth in the chain.
func eachMap(f *ir.Func, fn func(sm *ir.StackMap, depth int)) {
	chain := func(sm *ir.StackMap) {
		for d := 0; sm != nil; sm, d = sm.Caller, d+1 {
			fn(sm, d)
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			chain(v.Deopt)
		}
		chain(b.EntryState)
	}
}

// mapDump renders every stack map entry of f, in walk order.
func mapDump(f *ir.Func) string {
	var sb strings.Builder
	eachMap(f, func(sm *ir.StackMap, depth int) {
		fmt.Fprintf(&sb, "%d@%d:", depth, sm.PC)
		for _, e := range sm.Entries {
			fmt.Fprintf(&sb, " r%d=v%d", e.Reg, e.Val.ID)
		}
		sb.WriteByte('\n')
	})
	return sb.String()
}

// valuesByID indexes every value f places or names in a stack map.
func valuesByID(f *ir.Func) map[int]*ir.Value {
	vals := map[int]*ir.Value{}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			vals[v.ID] = v
		}
	}
	eachMap(f, func(sm *ir.StackMap, _ int) {
		for _, e := range sm.Entries {
			vals[e.Val.ID] = e.Val
		}
	})
	return vals
}

// callerMaps returns the maps f reaches only as some inlined map's Caller:
// no value's Deopt and no block's EntryState is one of them. Each is shared
// by the deopt points of the callee inlined at its call.
func callerMaps(f *ir.Func) []*ir.StackMap {
	root := map[*ir.StackMap]bool{}
	var callers []*ir.StackMap
	eachMap(f, func(sm *ir.StackMap, depth int) {
		if depth == 0 {
			root[sm] = true
		} else if !slices.Contains(callers, sm) {
			callers = append(callers, sm)
		}
	})
	return slices.DeleteFunc(callers, func(sm *ir.StackMap) bool { return root[sm] })
}

// callerOnly returns the IDs of the values only f's Caller-only maps name:
// no argument, control or other map does.
func callerOnly(f *ir.Func) []int {
	callers := callerMaps(f)
	used := map[int]bool{}
	inCaller := map[int]bool{}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			for _, a := range v.Args {
				used[a.ID] = true
			}
		}
		if b.Control != nil {
			used[b.Control.ID] = true
		}
	}
	eachMap(f, func(sm *ir.StackMap, _ int) {
		for _, e := range sm.Entries {
			if slices.Contains(callers, sm) {
				inCaller[e.Val.ID] = true
			} else {
				used[e.Val.ID] = true
			}
		}
	})
	var ids []int
	for id := range inCaller {
		if !used[id] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// plantCallerOnly makes a value that only a Caller-only map of f names: a
// fresh constant in the entry block takes over that map's first entry. The
// workloads' own IR has no such value, since a register live at a call is
// also live in some code or in a map of the caller's own frame.
func plantCallerOnly(f *ir.Func) bool {
	for _, sm := range callerMaps(f) {
		if len(sm.Entries) > 0 {
			c := f.Entry.InsertValueAt(0, ir.OpConst, ir.TypeGeneric)
			c.AuxVal = value.Int(7)
			sm.Entries[0].Val = c
			return true
		}
	}
	return false
}

// stopRun ends a workload run from inside its pass hook.
type stopRun struct{}

// captureFunc runs workload id and returns the n-th function (from zero)
// its FTL compiles bring to pass, as it stood after pass, or nil if fewer
// reach it. The hook stops the run, so no later pass changes the function.
func captureFunc(t *testing.T, id, pass string, n int) (f *ir.Func) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil && r != (stopRun{}) {
			panic(r)
		}
	}()
	runWorkload(t, id, vm.ArchNoMap, 12, func(p string, g *ir.Func) {
		if p != pass {
			return
		}
		if n == 0 {
			f = g
			panic(stopRun{})
		}
		n--
	})
	return nil
}

// captureFuncs returns, for every function the workloads' FTL compiles
// bring to pass, copies independent instances of it as it stood after
// pass. The passes after the hook change a function in place, so each
// instance comes from its own run of the (deterministic) workload, and each
// must print as the first one does.
func captureFuncs(t *testing.T, copies int, pass string, ids ...string) [][]*ir.Func {
	t.Helper()
	var out [][]*ir.Func
	for _, id := range ids {
		for n := 0; ; n++ {
			first := captureFunc(t, id, pass, n)
			if first == nil {
				break
			}
			fs := []*ir.Func{first}
			for len(fs) < copies {
				c := captureFunc(t, id, pass, n)
				if c == nil || c.String() != first.String() {
					t.Fatalf("%s: run %d brings function %d to %s differently from the first", id, len(fs), n, pass)
				}
				fs = append(fs, c)
			}
			out = append(out, fs)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no function reached %s in %v", pass, ids)
	}
	return out
}

// Random replacement sequences through the table give the IR the eager walk
// gives, on IR built from workloads: after every step Resolve names the
// value the eager walk left each use reading, and after ApplyForwarding
// f.String() and every stack map entry match. Steps make chains (a value
// forwarded to one that is forwarded later), replace a replacement (the new
// value is named by a stale reference to an already forwarded one), and
// forward values referenced only from shared inline Caller maps. A second
// round on the same Func forwards into the table's reused storage, as the
// next pass does.
func TestForwardingMatchesEagerWalk(t *testing.T) {
	// Each seed runs on an eager and a table copy of its own.
	const seeds = 4
	funcs := captureFuncs(t, 2*seeds, "build", "S13", "K05", "P02")
	// Transactions take the Deopt maps of the checks they cover, so some
	// inlined calls' Caller maps are left reachable only through chains.
	for _, fs := range captureFuncs(t, 2*seeds, "form-transactions", "C01", "C02", "C03", "C05") {
		if plantCallerOnly(fs[0]) {
			for _, f := range fs[1:] {
				plantCallerOnly(f)
			}
			funcs = append(funcs, fs)
		}
	}
	sharedOnly := 0
	for fi, fs := range funcs {
		g := fs[0]
		for seed := range uint64(seeds) {
			eager, table := fs[2*seed], fs[2*seed+1]
			ev, tv := valuesByID(eager), valuesByID(table)
			// cur is the eager world's answer to "which value does a use of
			// id read now".
			cur := make(map[int]int, len(ev))
			for id := range ev {
				cur[id] = id
			}
			rng := rand.New(rand.NewPCG(uint64(fi), seed))
			for round := range 2 {
				// Only live values are named: after an apply nothing reads a
				// forwarded one.
				var live []int
				for id, c := range cur {
					if c == id {
						live = append(live, id)
					}
				}
				slices.Sort(live)
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				olds := live
				if round == 0 {
					// Values named only by Caller maps are forwarded first.
					only := callerOnly(eager)
					sharedOnly += len(only)
					olds = append(only, live...)
				}
				var targets []int // values other values were forwarded to
				var forwarded []int
				steps := min(len(live)/4, 40)
				for s, old := range olds {
					if s >= steps {
						break
					}
					if cur[old] != old {
						continue // a pass only forwards a live value
					}
					var name int
					switch k := rng.IntN(3); {
					case k == 0 && len(targets) > 0:
						name = targets[rng.IntN(len(targets))] // chain, if it is forwarded later
					case k == 1 && len(forwarded) > 0:
						name = forwarded[rng.IntN(len(forwarded))] // a replacement's stale name
					default:
						name = live[rng.IntN(len(live))]
					}
					to := cur[name]
					if to != old {
						replaceUses(eager, ev[old], ev[to])
						for id, c := range cur {
							if c == old {
								cur[id] = to
							}
						}
						targets = append(targets, to)
						forwarded = append(forwarded, old)
					}
					table.Forward(tv[old], tv[name])
					for _, id := range live {
						if got := table.Resolve(tv[id]).ID; got != cur[id] {
							t.Fatalf("%s seed %d round %d step %d: Resolve(v%d) = v%d, eager walk reads v%d", g.Name, seed, round, s, id, got, cur[id])
						}
					}
				}
				table.ApplyForwarding()
				if want, got := eager.String(), table.String(); got != want {
					t.Fatalf("%s seed %d round %d: IR differs from the eager walk\neager:\n%s\ntable:\n%s", g.Name, seed, round, want, got)
				}
				if want, got := mapDump(eager), mapDump(table); got != want {
					t.Fatalf("%s seed %d round %d: stack maps differ from the eager walk\neager:\n%s\ntable:\n%s", g.Name, seed, round, want, got)
				}
			}
		}
	}
	if sharedOnly == 0 {
		t.Fatal("no value was referenced only from inline Caller maps")
	}
	t.Logf("%d functions, %d values referenced only from Caller maps", len(funcs), sharedOnly/seeds)
}

// A Func that forwarded nothing resolves and applies without allocating.
func TestForwardingIdleAllocatesNothing(t *testing.T) {
	f := captureFunc(t, "S13", "build", 0)
	if f == nil {
		t.Fatal("no function reached build in S13")
	}
	vals := valuesByID(f)
	n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			f.ResolveArgs(v)
		}
		f.ApplyForwarding()
	})
	if n != 0 {
		t.Errorf("idle forwarding allocates %v per run, want 0", n)
	}
}
