package sim

import (
	"slices"
	"testing"

	"nabbitc/internal/core"
)

// TestSimRealCompletionOrderOneWorker checks the simulator against the
// real engine. With one worker there are no steals and no timing effects,
// so the order in which nodes complete is fixed entirely by the grouping
// and split decisions (internal/sched) plus each machine's deque and
// node-table discipline: the two machines must report the same order.
// Colors are drawn from a wider range than the single worker, so the
// grouping's out-of-range path and the colored split's descent choice
// are both exercised.
func TestSimRealCompletionOrderOneWorker(t *testing.T) {
	policies := []struct {
		name string
		p    core.Policy
	}{
		{"nabbit", core.NabbitPolicy()},
		{"nabbitc", core.NabbitCPolicy()},
		{"nabbitc-hier", core.NabbitCHierPolicy()},
	}
	tables := []core.NodeTableBackend{core.NodeTableDense, core.NodeTableSharded}
	for seed := uint64(1); seed <= 200; seed++ {
		spec, sink := randomDenseDAG(seed, 2+int(seed%5), 1+int(seed%9), 4)
		for _, pc := range policies {
			for _, nt := range tables {
				var real, simulated []core.Key
				_, err := core.Run(spec, sink, core.Options{
					Workers:    1,
					Policy:     pc.p,
					NodeTable:  nt,
					OnComplete: func(_ int, k core.Key) { real = append(real, k) },
				})
				if err != nil {
					t.Fatalf("seed %d %s/%v: core: %v", seed, pc.name, nt, err)
				}
				_, err = Run(spec, sink, Options{
					Workers:    1,
					Policy:     pc.p,
					NodeTable:  nt,
					OnComplete: func(_ int64, _ int, k core.Key) { simulated = append(simulated, k) },
				})
				if err != nil {
					t.Fatalf("seed %d %s/%v: sim: %v", seed, pc.name, nt, err)
				}
				if !slices.Equal(real, simulated) {
					t.Errorf("seed %d %s/%v: completion orders differ\n core %v\n  sim %v",
						seed, pc.name, nt, real, simulated)
				}
			}
		}
	}
}
