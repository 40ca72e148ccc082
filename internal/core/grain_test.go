package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"nabbitc/internal/sched"
	"nabbitc/internal/xrand"
)

// pagerankShape is a fixed PageRank-like graph: iters iterations of
// blocks nodes, each node of iteration i > 0 reading fan distinct nodes
// of iteration i-1, and a sink reading the whole last iteration. Two
// colors alternate over the blocks.
func pagerankShape(blocks, iters, fan int) (FuncSpec, Key, int) {
	n := blocks * iters
	sink := Key(n)
	preds := make([][]Key, n+1)
	for it := 1; it < iters; it++ {
		for b := 0; b < blocks; b++ {
			for j := 0; j < fan; j++ {
				// 13 is coprime to the block counts used here, so the
				// fan predecessors are distinct.
				preds[it*blocks+b] = append(preds[it*blocks+b], Key((it-1)*blocks+(b+13*j)%blocks))
			}
		}
	}
	for b := 0; b < blocks; b++ {
		preds[sink] = append(preds[sink], Key((iters-1)*blocks+b))
	}
	return FuncSpec{
		PredsFn: func(k Key) []Key { return preds[k] },
		ColorFn: func(k Key) int { return int(k) % blocks % 2 },
		BoundFn: func() int { return n + 1 },
	}, sink, n + 1
}

// TestPushCountWideFanIn pins the deque traffic of predecessor discovery
// on one worker, where the schedule is deterministic. Splitting a key
// spawn stops at sched.Grain and a leaf pushes its unresolved rest once,
// at the first predecessor it creates, so the pushes stay within one per
// node plus one per grain-sized leaf. Splitting down to single keys, as
// the engine once did, pushes about one item per edge and fails here.
func TestPushCountWideFanIn(t *testing.T) {
	spec, sink, nodes := pagerankShape(200, 5, 160)
	for _, nt := range []NodeTableBackend{NodeTableDense, NodeTableSharded} {
		st, err := Run(spec, sink, Options{Workers: 1, Policy: NabbitCPolicy(), NodeTable: nt})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.TotalNodes(); got != int64(nodes) {
			t.Fatalf("%v: computed %d nodes, want %d", nt, got, nodes)
		}
		bound := int64(nodes)
		for k := 0; k < nodes; k++ {
			if p := len(spec.Predecessors(Key(k))); p > 0 {
				g := sched.Grain(p, 1)
				bound += int64((p + g - 1) / g)
			}
		}
		pushes := st.Workers[0].Pushes
		if pushes > bound {
			t.Errorf("%v: %d pushes, want at most nodes + Σ⌈preds/grain⌉ = %d", nt, pushes, bound)
		}
		const want = 6445
		if pushes != want {
			t.Errorf("%v: %d pushes, want exactly %d", nt, pushes, want)
		}
	}
}

// TestOutOfBoundPredecessorKey checks that on the dense backend a
// predecessor key outside the spec's declared bound fails only its own
// graph, with a *ComputeError carrying the bound message — also when the
// colored grouping reads the key's cached color before the key is ever
// resolved — and that the engine then runs the next graph. (The sharded
// backend has no bound to violate.)
func TestOutOfBoundPredecessorKey(t *testing.T) {
	const bound = 10
	const msg = "outside the spec's declared bound"
	for _, bad := range [][]Key{{1, 2, 42}, {-3, 1, 2}} {
		preds := map[Key][]Key{9: bad, 5: {1, 2}}
		spec := FuncSpec{
			PredsFn: func(k Key) []Key { return preds[k] },
			ColorFn: func(k Key) int { return int(k) % 2 },
			BoundFn: func() int { return bound },
		}
		for _, pc := range []struct {
			name string
			p    Policy
		}{{"nabbit", NabbitPolicy()}, {"nabbitc", NabbitCPolicy()}} {
			name := fmt.Sprintf("%v/%s", bad, pc.name)
			e, err := NewEngine(spec, Options{Workers: 2, Policy: pc.p, NodeTable: NodeTableDense})
			if err != nil {
				t.Fatal(err)
			}
			badT, err := e.Submit(9)
			if err != nil {
				t.Fatal(err)
			}
			goodT, err := e.Submit(5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := goodT.Wait(); err != nil {
				t.Errorf("%s: healthy graph failed: %v", name, err)
			}
			_, err = badT.Wait()
			var ce *ComputeError
			if !errors.As(err, &ce) || !strings.Contains(fmt.Sprint(ce.Value), msg) {
				t.Errorf("%s: bad graph returned %v, want a *ComputeError saying %q", name, err, msg)
			}
			st, err := e.Execute(5)
			if err != nil || st.TotalNodes() != 3 {
				t.Errorf("%s: next graph: err %v, stats %+v", name, err, st)
			}
			e.Close()
		}
	}
}

// wideFanInGraph is a random layered DAG whose nodes read 64–256
// predecessors each, drawn with replacement from all earlier layers
// (duplicate keys, predecessors shared by many owners). Compute folds the
// predecessors' values into the node's own, so a missed, repeated or
// early execution changes the checksum.
type wideFanInGraph struct {
	preds [][]Key
	vals  []uint64
	runs  []atomic.Int32
}

func newWideFanInGraph(seed uint64, layers, width int) (*wideFanInGraph, FuncSpec, Key) {
	r := xrand.New(seed)
	n := layers * width
	g := &wideFanInGraph{preds: make([][]Key, n+1), vals: make([]uint64, n+1), runs: make([]atomic.Int32, n+1)}
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			k := l*width + i
			for f := 64 + r.Intn(193); f > 0; f-- {
				g.preds[k] = append(g.preds[k], Key(r.Intn(l*width)))
			}
		}
	}
	for i := 0; i < width; i++ {
		g.preds[n] = append(g.preds[n], Key((layers-1)*width+i))
	}
	return g, FuncSpec{
		PredsFn:   func(k Key) []Key { return g.preds[k] },
		ColorFn:   func(k Key) int { return int(k) % 5 },
		ComputeFn: g.compute,
		BoundFn:   func() int { return n + 1 },
	}, Key(n)
}

func (g *wideFanInGraph) compute(k Key) {
	g.runs[k].Add(1)
	v := uint64(k)*0x9e3779b97f4a7c15 + 1
	for _, p := range g.preds[k] {
		v = v*31 + g.vals[p]
	}
	g.vals[k] = v
}

func (g *wideFanInGraph) reset() {
	clear(g.vals)
	for i := range g.runs {
		g.runs[i].Store(0)
	}
}

// checksum folds every node's value in key order.
func (g *wideFanInGraph) checksum() uint64 {
	var s uint64
	for _, v := range g.vals {
		s = s*1099511628211 + v
	}
	return s
}

// TestWideFanInStress runs wide fan-in graphs on 2–4 workers across the
// deque substrates and node tables: every node computes exactly once,
// and the result equals a serial run's. Leaves of many keys, and the
// rest items they push, are stolen and resolved concurrently here.
func TestWideFanInStress(t *testing.T) {
	layers, width, reps := 4, 96, 3
	if testing.Short() {
		layers, width, reps = 3, 64, 1
	}
	g, spec, sink := newWideFanInGraph(7, layers, width)
	for k := range g.vals {
		g.compute(Key(k)) // keys ascend through the layers: a topological order
	}
	want := g.checksum()
	for _, dq := range []DequeBackend{DequeMutex, DequeChaseLev, DequeBlock} {
		for _, nt := range []NodeTableBackend{NodeTableDense, NodeTableSharded} {
			for workers := 2; workers <= 4; workers++ {
				pol := NabbitCPolicy()
				pol.Deque = dq
				e, err := NewEngine(spec, Options{Workers: workers, Policy: pol, NodeTable: nt})
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < reps; rep++ {
					g.reset()
					if _, err := e.Execute(sink); err != nil {
						t.Fatalf("%v/%v/w%d: %v", dq, nt, workers, err)
					}
					for k := range g.runs {
						if c := g.runs[k].Load(); c != 1 {
							t.Fatalf("%v/%v/w%d: node %d computed %d times", dq, nt, workers, k, c)
						}
					}
					if got := g.checksum(); got != want {
						t.Fatalf("%v/%v/w%d: checksum %x, serial %x", dq, nt, workers, got, want)
					}
				}
				e.Close()
			}
		}
	}
}
