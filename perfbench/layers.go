package main

import (
	"fmt"
	"runtime"
	"sync"

	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/graphs"
)

// execSample is what one traced Execute tells about the core and bench
// layers.
type execSample struct {
	durNS, selfNS, idleNS int64
	nodes                 int64
	kids                  childTotals
	stealAttempts         int64
	stealsOK              int64
	parks, wakes, spins   int64
	grows                 int64
	firstWorkNS           float64
	remotePct             float64
	mallocs, bytes, gcs   uint64
}

func newExecSample(st *core.Stats, root span, kids childTotals, self int64, m0, m1 *runtime.MemStats) execSample {
	e := execSample{
		durNS:       root.dur(),
		selfNS:      self,
		nodes:       int64(st.NodesCreated),
		kids:        kids,
		parks:       st.Parks(),
		wakes:       st.Wakes(),
		spins:       st.SpinRounds(),
		grows:       st.DequeGrows(),
		firstWorkNS: float64(st.AvgTimeToFirstWork()),
		remotePct:   st.RemotePercent(),
		mallocs:     m1.Mallocs - m0.Mallocs,
		bytes:       m1.TotalAlloc - m0.TotalAlloc,
		gcs:         uint64(m1.NumGC - m0.NumGC),
	}
	for i := range st.Workers {
		w := &st.Workers[i]
		e.idleNS += int64(w.IdleTime)
		e.stealAttempts += w.StealAttempts
		e.stealsOK += w.StealsOK
	}
	return e
}

// coreMetrics reduces traced executions to the core, bench-callback and
// runtime metrics: the median over executions of each per-execution
// ratio, except the callback counts per node and the steal hit ratio,
// which are ratios of sums (Σ calls ÷ Σ nodes, Σ hits ÷ Σ attempts), and
// the deque growth and runtime counts (sums, the latter per execution).
func coreMetrics(m map[string]float64, execs []execSample, workers int) {
	med := func(f func(e *execSample) float64) float64 {
		xs := make([]float64, len(execs))
		for i := range execs {
			xs[i] = f(&execs[i])
		}
		return pct(xs, 50)
	}
	var hits, attempts, grows, nodes int64
	var mallocs, bytes, gcs uint64
	var kids childTotals
	for i := range execs {
		e := &execs[i]
		nodes += e.nodes
		kids.computeCalls += e.kids.computeCalls
		kids.predsCalls += e.kids.predsCalls
		kids.colorCalls += e.kids.colorCalls
		kids.edges += e.kids.edges
		hits += e.stealsOK
		attempts += e.stealAttempts
		grows += e.grows
		mallocs += e.mallocs
		bytes += e.bytes
		gcs += e.gcs
	}
	n := float64(len(execs))
	m["core.self_ns_per_node"] = med(func(e *execSample) float64 { return ratio(float64(e.selfNS), float64(e.nodes)) })
	m["core.busy_ns_per_node"] = med(func(e *execSample) float64 { return ratio(float64(e.selfNS-e.idleNS), float64(e.nodes)) })
	m["core.overhead_ns_per_edge"] = med(func(e *execSample) float64 { return ratio(float64(e.selfNS-e.idleNS), float64(e.kids.edges)) })
	m["core.idle_frac"] = med(func(e *execSample) float64 { return ratio(float64(e.idleNS), float64(int64(workers)*e.durNS)) })
	m["core.steal_attempts_per_node"] = med(func(e *execSample) float64 { return ratio(float64(e.stealAttempts), float64(e.nodes)) })
	m["core.steal_hit_ratio"] = ratio(float64(hits), float64(attempts))
	m["core.time_to_first_work_us"] = med(func(e *execSample) float64 { return e.firstWorkNS / 1e3 })
	m["core.parks_per_exec"] = med(func(e *execSample) float64 { return float64(e.parks) })
	m["core.wakes_per_exec"] = med(func(e *execSample) float64 { return float64(e.wakes) })
	m["core.spin_rounds_per_exec"] = med(func(e *execSample) float64 { return float64(e.spins) })
	m["core.deque_grows"] = float64(grows)
	m["core.remote_pct"] = med(func(e *execSample) float64 { return e.remotePct })
	m["bench.compute_ns_per_node"] = med(func(e *execSample) float64 { return ratio(float64(e.kids.computeNS), float64(e.kids.computeCalls)) })
	m["bench.preds_ns_per_call"] = med(func(e *execSample) float64 { return ratio(float64(e.kids.predsNS), float64(e.kids.predsCalls)) })
	m["bench.compute_calls_per_node"] = ratio(float64(kids.computeCalls), float64(nodes))
	m["bench.preds_calls_per_node"] = ratio(float64(kids.predsCalls), float64(nodes))
	m["bench.color_calls_per_node"] = ratio(float64(kids.colorCalls), float64(nodes))
	m["bench.edges_per_node"] = ratio(float64(kids.edges), float64(nodes))
	m["runtime.allocs_per_exec"] = ratio(float64(mallocs), n)
	m["runtime.bytes_per_exec"] = ratio(float64(bytes), n)
	m["runtime.gc_cycles_per_exec"] = ratio(float64(gcs), n)
}

// discoverReps is how many fresh node stores discoverNS fills.
const discoverReps = 15

// discoverNS returns the median time per key of NodeStore.GetOrCreate
// over every key of spec's bound on a fresh store: the engine's discovery
// step (the arena claim plus the Predecessors callback) without a run
// around it.
func discoverNS(spec core.Spec, workers int, rec *recorder) (float64, error) {
	bound := core.KeyBoundOf(spec)
	xs := make([]float64, 0, discoverReps)
	for range discoverReps {
		st, err := core.NewNodeStore(spec, workers, core.NodeTableAuto)
		if err != nil {
			return 0, fmt.Errorf("NewNodeStore: %w", err)
		}
		t0 := rec.now()
		for k := range bound {
			st.GetOrCreate(core.Key(k))
		}
		t1 := rec.now()
		rec.addRoot(kindGetOrCreate, t0, t1, bound)
		if st.Count() != bound {
			return 0, fmt.Errorf("NodeStore holds %d nodes after creating %d", st.Count(), bound)
		}
		xs = append(xs, float64(t1-t0)/float64(bound))
	}
	return pct(xs, 50), nil
}

// layerMetrics measures the layers every workload shares: the deque
// substrate the engine resolves, and crawl generation.
func layerMetrics(cfg config, res *result, m map[string]float64, rec *recorder) {
	be := core.ResolveDeque(core.NabbitCPolicy())
	m["deque.push_pop_ns"] = pushPopNS(cfg, res, be, rec)
	m["deque.steal_ns_per_item"] = stealNS(cfg, res, be, rec)
	m["graphs.generate_s"] = generateS(cfg, res, rec)
}

func newQueue(be core.DequeBackend, capHint int) deque.Queue[int] {
	switch be {
	case core.DequeChaseLev:
		return deque.NewChaseLev[int](capHint)
	case core.DequeBlock:
		return deque.NewBlock[int](capHint)
	default:
		return deque.NewMutex[int](capHint)
	}
}

const (
	dequeReps  = 9
	dequeItems = 1 << 16
)

// pushPopNS returns the median time of one owner PushBottom+PopBottom
// pair on an otherwise idle deque, checking each popped value.
func pushPopNS(cfg config, res *result, be core.DequeBackend, rec *recorder) float64 {
	xs := make([]float64, 0, dequeReps)
	for range dequeReps {
		q := newQueue(be, 64)
		var err error
		t0 := rec.now()
		for i := range dequeItems {
			q.PushBottom(deque.Entry[int]{Value: i})
			if e, ok := q.PopBottom(); !ok || e.Value != i {
				err = fmt.Errorf("deque %v: push %d popped %v (ok %v)", be, i, e.Value, ok)
				break
			}
		}
		t1 := rec.now()
		rec.addRoot(kindPushPop, t0, t1, dequeItems)
		res.check(cfg.log, err)
		if err == nil {
			xs = append(xs, float64(t1-t0)/dequeItems)
		}
	}
	return pct(xs, 50)
}

// stealNS returns the median time per stolen item of one thief draining
// StealTop from a full deque while its owner drains PopBottom, checking
// that every item is delivered exactly once.
func stealNS(cfg config, res *result, be core.DequeBackend, rec *recorder) float64 {
	xs := make([]float64, 0, dequeReps)
	for range dequeReps {
		q := newQueue(be, dequeItems)
		for i := range dequeItems {
			q.PushBottom(deque.Entry[int]{Value: i})
		}
		stolen, popped := make([]int, 0, dequeItems), make([]int, 0, dequeItems)
		var t0, t1 int64
		var wg sync.WaitGroup
		ready := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 = rec.now()
			close(ready)
			for {
				e, o := q.StealTop()
				if o == deque.StealEmpty {
					break
				}
				if o == deque.StealOK {
					stolen = append(stolen, e.Value)
				}
			}
			t1 = rec.now()
		}()
		<-ready
		for {
			e, ok := q.PopBottom()
			if !ok {
				break
			}
			popped = append(popped, e.Value)
		}
		wg.Wait()
		rec.addRoot(kindSteal, t0, t1, len(stolen))
		err := exactlyOnce(dequeItems, stolen, popped)
		res.check(cfg.log, err)
		if err == nil && len(stolen) > 0 {
			xs = append(xs, float64(t1-t0)/float64(len(stolen)))
		}
	}
	return pct(xs, 50)
}

// exactlyOnce reports an item of [0, n) delivered other than once across
// the two consumers.
func exactlyOnce(n int, a, b []int) error {
	seen := make([]int, n)
	for _, xs := range [][]int{a, b} {
		for _, v := range xs {
			if v < 0 || v >= n {
				return fmt.Errorf("deque delivered foreign item %d", v)
			}
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			return fmt.Errorf("deque delivered item %d %d times", v, c)
		}
	}
	return nil
}

const generateReps = 3

// generateS returns the median time of generating pagerank-dense's crawl
// for the run's seed, checking each graph.
func generateS(cfg config, res *result, rec *recorder) float64 {
	web := twitterWeb(cfg.seed)
	xs := make([]float64, 0, generateReps)
	for range generateReps {
		t0 := rec.now()
		g, err := graphs.Generate(web)
		t1 := rec.now()
		rec.addRoot(kindGenerate, t0, t1, 0)
		if err == nil {
			err = g.Validate()
		}
		res.check(cfg.log, err)
		if err == nil {
			xs = append(xs, float64(t1-t0)/1e9)
		}
	}
	return pct(xs, 50)
}
