package sim

import (
	"testing"
	"testing/quick"

	"nabbitc/internal/core"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// randomDenseDAG builds a pseudo-random layered DAG over a dense key
// universe [0, layers*width] (sink = layers*width) that declares its
// bound, so the dense arena backend engages. Colors include out-of-range
// ones, exercising the arena's overflow home bucket. Each node has 1–3
// predecessors.
func randomDenseDAG(seed uint64, layers, width, workers int) (core.FuncSpec, core.Key) {
	return randomFanInDAG(seed, layers, width, workers, 1, 3)
}

// randomFanInDAG is randomDenseDAG with minFan–maxFan predecessors per
// node, drawn with replacement from all earlier layers: duplicate keys
// and predecessors shared by several owners are both common.
func randomFanInDAG(seed uint64, layers, width, workers, minFan, maxFan int) (core.FuncSpec, core.Key) {
	r := xrand.New(seed)
	key := func(l, i int) core.Key { return core.Key(l*width + i) }
	n := layers * width
	sink := core.Key(n)

	preds := make([][]core.Key, n+1)
	colors := make([]int, n+1)
	fps := make([]core.Footprint, n+1)
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			k := key(l, i)
			if r.Intn(10) == 0 {
				colors[k] = -1
			} else {
				colors[k] = r.Intn(workers)
			}
			fps[k] = core.Footprint{
				Compute:     int64(r.Intn(1000)),
				OwnBytes:    int64(r.Intn(4000)),
				PredBytes:   int64(r.Intn(64)),
				SpreadBytes: int64(r.Intn(500)),
			}
			if l == 0 {
				continue
			}
			fan := minFan + r.Intn(maxFan-minFan+1)
			for f := 0; f < fan; f++ {
				pl := r.Intn(l)
				preds[k] = append(preds[k], key(pl, r.Intn(width)))
			}
		}
	}
	colors[sink] = 0
	fps[sink] = core.Footprint{Compute: 1}
	for i := 0; i < width; i++ {
		preds[sink] = append(preds[sink], key(layers-1, i))
	}
	return core.FuncSpec{
		PredsFn:     func(k core.Key) []core.Key { return preds[k] },
		ColorFn:     func(k core.Key) int { return colors[k] },
		FootprintFn: func(k core.Key) core.Footprint { return fps[k] },
		BoundFn:     func() int { return n + 1 },
	}, sink
}

// completion is one OnComplete observation; two runs whose completion
// sequences are element-wise equal executed the same schedule.
type completion struct {
	t int64
	w int
	k core.Key
}

func runSchedule(t *testing.T, spec core.CostSpec, sink core.Key, opts Options) ([]completion, *Result) {
	t.Helper()
	var sched []completion
	opts.OnComplete = func(vt int64, w int, k core.Key) {
		sched = append(sched, completion{t: vt, w: w, k: k})
	}
	res, err := Run(spec, sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sched, res
}

// Property: on any random dense DAG, under any policy, the dense-arena
// and sharded-map node-table backends produce identical schedules — the
// same tasks, on the same workers, at the same virtual times, in the same
// order — and identical end-to-end results. The node table is storage; it
// must never leak into scheduling.
func TestQuickDenseShardedScheduleIdentity(t *testing.T) {
	f := func(seed uint64, layersRaw, widthRaw, workersRaw uint8) bool {
		layers := int(layersRaw)%5 + 2
		width := int(widthRaw)%10 + 1
		workers := int(workersRaw)%20 + 1

		spec, sink := randomDenseDAG(seed, layers, width, workers)

		var pol core.Policy
		var topo numa.Topology
		switch seed % 3 {
		case 0:
			pol = core.NabbitCPolicy()
		case 1:
			pol = core.NabbitPolicy()
		default:
			pol = core.NabbitCHierPolicy()
			topo = numa.Topology{Workers: workers, CoresPerDomain: 3}
		}
		pol.FirstStealMaxRounds = 2
		pol.Seed = seed + 7

		base := Options{Workers: workers, Policy: pol, Topology: topo}
		optsD := base
		optsD.NodeTable = core.NodeTableDense
		optsS := base
		optsS.NodeTable = core.NodeTableSharded

		schedD, resD := runSchedule(t, spec, sink, optsD)
		schedS, resS := runSchedule(t, spec, sink, optsS)

		if len(schedD) != len(schedS) {
			t.Logf("seed %d: dense ran %d completions, sharded %d", seed, len(schedD), len(schedS))
			return false
		}
		for i := range schedD {
			if schedD[i] != schedS[i] {
				t.Logf("seed %d: completion %d differs: dense %+v, sharded %+v",
					seed, i, schedD[i], schedS[i])
				return false
			}
		}
		if resD.Makespan != resS.Makespan {
			t.Logf("seed %d: makespan dense %d != sharded %d", seed, resD.Makespan, resS.Makespan)
			return false
		}
		if resD.NodesCreated != resS.NodesCreated {
			t.Logf("seed %d: created dense %d != sharded %d", seed, resD.NodesCreated, resS.NodesCreated)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The auto backend must pick the dense arena for a bounded spec and the
// map for an unbounded one, without changing either schedule.
func TestAutoBackendMatchesForced(t *testing.T) {
	spec, sink := randomDenseDAG(3, 4, 6, 8)
	opts := Options{Workers: 8, Policy: core.NabbitCPolicy()}
	schedAuto, _ := runSchedule(t, spec, sink, opts)
	forced := opts
	forced.NodeTable = core.NodeTableDense
	schedDense, _ := runSchedule(t, spec, sink, forced)
	if len(schedAuto) != len(schedDense) {
		t.Fatalf("auto ran %d completions, dense %d", len(schedAuto), len(schedDense))
	}
	for i := range schedAuto {
		if schedAuto[i] != schedDense[i] {
			t.Fatalf("completion %d differs between auto and forced dense", i)
		}
	}

	// Unbounded spec + forced dense must fail loudly, not fall back.
	unbounded := spec
	unbounded.BoundFn = nil
	if _, err := Run(unbounded, sink, forced); err == nil {
		t.Fatal("forced dense on an unbounded spec did not error")
	}
}
