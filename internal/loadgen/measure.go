// MeasureKey derives a workload key's service-cost profile from real engine
// runs — the bridge between the deterministic engine and the virtual-time
// simulator. Every number is modeled cycles from the engine's own
// accounting, so the profile (and everything the simulator derives from it)
// is bit-reproducible.
package loadgen

import (
	"fmt"

	"nomap/internal/pool"
	"nomap/internal/profile"
	"nomap/internal/vm"
)

// MeasureKey profiles one workload (source, calls, arg) under cfg by sending
// it to a one-worker pool.Pool: the first request serves cold (tier-up on
// path), the second starts warm (snapshot restore plus shared code cache),
// and a third capped at Baseline — its own warm-start key — serves cold
// without speculative tiers (the async cold path). The three runs must
// produce identical results or the workload is rejected — a key whose
// output depends on warmth could never be served by the pool.
func MeasureKey(name, source string, calls, arg int, cfg vm.Config) (KeyProfile, error) {
	kp := KeyProfile{Name: name}
	// Every request is worth a snapshot, so the second always starts warm.
	p := pool.New(pool.Config{Workers: 1, VM: cfg, SnapshotMinCalls: calls})
	defer p.Close()
	serve := func(stage string, maxTier *profile.Tier) (pool.Response, string, error) {
		resp := p.Do(pool.Request{Source: source, Calls: calls, Arg: arg, MaxTier: maxTier})
		if resp.Err != nil {
			return resp, "", fmt.Errorf("loadgen: %s %s: %w", name, stage, resp.Err)
		}
		return resp, resp.Results[len(resp.Results)-1], nil
	}

	cold, coldRes, err := serve("cold", nil)
	if err != nil {
		return kp, err
	}
	kp.ColdCycles = cold.Counters.TotalCycles()
	for tier, n := range cold.Counters.Compilations {
		kp.CompileCycles += n * CompileCost[tier]
	}
	kp.Result = coldRes

	warm, warmRes, err := serve("warm", nil)
	if err != nil {
		return kp, err
	}
	if !warm.Warm {
		return kp, fmt.Errorf("loadgen: %s: second request did not restore a snapshot", name)
	}
	kp.WarmCycles = warm.Counters.TotalCycles()

	// Baseline-capped: what an async-mode cold request pays while its
	// compiles are deferred to the background queue.
	baseline := profile.TierBaseline
	base, baseRes, err := serve("baseline", &baseline)
	if err != nil {
		return kp, err
	}
	kp.BaselineCycles = base.Counters.TotalCycles()

	if warmRes != coldRes || baseRes != coldRes {
		return kp, fmt.Errorf("loadgen: %s: results diverge across warmth (cold %q warm %q baseline %q)",
			name, coldRes, warmRes, baseRes)
	}
	return kp, nil
}
