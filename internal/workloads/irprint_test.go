package workloads_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nomap/internal/ir"
	"nomap/internal/jit"
	"nomap/internal/value"
	"nomap/internal/vm"
	"nomap/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/ir_fingerprints.golden with current output")

const irGolden = "testdata/ir_fingerprints.golden"

// The cross-arch agreement tests already compile every suite under all six
// archs, so they also pin what the compilers produce: each of those runs
// fingerprints the IR after every pass of every compile and compares it with
// one golden line per (workload, arch, variant). After an intended change to
// the IR regenerate with
//
//	go test ./internal/workloads -run AgreeAcrossArchs -update

// irPrint fingerprints everything one backend compiles: the number of passes
// observed and an FNV-64 over each pass's name, f.String(), and the entries
// of every Deopt and EntryState stack map with their inline Caller chains.
type irPrint struct {
	passes int
	h      hash.Hash64
	buf    []byte
}

func (p *irPrint) hook(pass string, f *ir.Func) {
	p.passes++
	p.buf = append(p.buf[:0], pass...)
	p.buf = append(p.buf, '\n')
	p.buf = append(p.buf, f.String()...)
	for _, b := range f.Blocks {
		p.stackMap(b.EntryState)
		for _, v := range b.Values {
			p.stackMap(v.Deopt)
		}
	}
	p.h.Write(p.buf)
}

func (p *irPrint) stackMap(sm *ir.StackMap) {
	for ; sm != nil; sm = sm.Caller {
		p.buf = append(p.buf, "sm@"...)
		p.buf = strconv.AppendInt(p.buf, int64(sm.PC), 10)
		if sm.Inline != nil {
			p.buf = append(p.buf, " in "...)
			p.buf = append(p.buf, sm.InlinePath()...)
		}
		for _, e := range sm.Entries {
			p.buf = append(p.buf, " r"...)
			p.buf = strconv.AppendInt(p.buf, int64(e.Reg), 10)
			if e.Val == nil {
				p.buf = append(p.buf, "=nil"...)
				continue
			}
			p.buf = append(p.buf, "=v"...)
			p.buf = strconv.AppendInt(p.buf, int64(e.Val.ID), 10)
		}
		p.buf = append(p.buf, '\n')
	}
}

func (p *irPrint) line() string { return fmt.Sprintf("passes=%d fnv=%016x", p.passes, p.h.Sum64()) }

var irGoldens struct {
	once  sync.Once
	lines map[string]string
	err   error

	mu  sync.Mutex
	got map[string]string // -update: the lines this run produced
}

func loadIRGolden() (map[string]string, error) {
	irGoldens.once.Do(func() {
		irGoldens.lines = map[string]string{}
		f, err := os.Open(irGolden)
		if err != nil {
			irGoldens.err = err
			return
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if key, line, ok := strings.Cut(sc.Text(), " "); ok {
				irGoldens.lines[key] = line
			}
		}
		irGoldens.err = sc.Err()
	})
	return irGoldens.lines, irGoldens.err
}

// runPrinted is runWorkload under the FTL ceiling on an engine built from
// cfg, with load putting w's program into it (nil: v.Run(w.Source)). The
// fingerprint of everything the run compiles must match the golden line for
// w.ID/arch/variant.
func runPrinted(t *testing.T, w workloads.Workload, cfg vm.Config, variant string, load func(*vm.VM) error, calls int) (*vm.VM, value.Value) {
	t.Helper()
	v := vm.New(cfg)
	p := &irPrint{h: fnv.New64a()}
	jit.Attach(v).SetPassHook(p.hook)
	if load == nil {
		load = func(v *vm.VM) error { _, err := v.Run(w.Source); return err }
	}
	if err := load(v); err != nil {
		t.Fatalf("%s setup: %v", w.ID, err)
	}
	got := callRun(t, w, v, calls)

	key := w.ID + "/" + cfg.Arch.String()
	if variant != "" {
		key += "/" + variant
	}
	if *update {
		irGoldens.mu.Lock()
		if irGoldens.got == nil {
			irGoldens.got = map[string]string{}
		}
		irGoldens.got[key] = p.line()
		irGoldens.mu.Unlock()
		return v, got
	}
	golden, err := loadIRGolden()
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if want, ok := golden[key]; !ok {
		t.Errorf("%s: no line in %s", key, irGolden)
	} else if p.line() != want {
		t.Errorf("%s: compiled IR %s, golden %s", key, p.line(), want)
	}
	return v, got
}

// writeIRGolden merges the lines an -update run produced into the golden,
// so a run narrowed with -run rewrites only the lines it reproduced.
func writeIRGolden() error {
	lines, err := loadIRGolden()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	maps.Copy(lines, irGoldens.got)
	keys := make([]string, 0, len(lines))
	for key := range lines {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	var sb strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&sb, "%s %s\n", key, lines[key])
	}
	return os.WriteFile(irGolden, []byte(sb.String()), 0o644)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if *update && code == 0 {
		if err := writeIRGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
