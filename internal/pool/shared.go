package pool

import (
	"nomap/internal/machine"
	"nomap/internal/vm"
)

// RunShared executes a shared-heap contention workload on the pool: one real
// goroutine per workload worker, racing on one value.SharedHeap through the
// conflict domain, exactly as concurrent isolates sharing state would. The
// run is independent of the request queue (shared sections never execute
// inside a serving isolate's transaction), but its counters merge into the
// pool's totals like any served work, so Stats reflects contention activity
// alongside serving activity.
func (p *Pool) RunShared(wl *machine.SharedWorkload, arch vm.Arch, seed int64, opt machine.SharedOptions) (*machine.SharedResult, error) {
	res, err := machine.RunConcurrent(wl, arch, seed, opt)
	if err != nil {
		return nil, err
	}
	p.mergedMu.Lock()
	p.merged.Add(&res.Merged)
	p.mergedMu.Unlock()
	return res, nil
}
