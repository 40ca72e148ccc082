package main

import (
	"fmt"
	"runtime"
	"time"

	"nabbitc/internal/bench/pagerank"
	"nabbitc/internal/bench/stencil"
	"nabbitc/internal/core"
	"nabbitc/internal/graphs"
	"nabbitc/internal/omp"
)

// instance is one single-use run of a batch kernel over live data.
// stencil.Real and pagerank.Real satisfy it.
type instance interface {
	Spec(p int) (core.CostSpec, core.Key)
	RunSerial()
	RunOpenMP(team *omp.Team, sched omp.Schedule)
	Checksum() float64
}

// batchDef is a batch workload: build makes its data from the seed
// (generating the crawl, for PageRank) and returns a constructor of fresh
// instances over that data.
type batchDef struct {
	name  string
	build func(seed uint64) func() instance
}

// heatFine is the heat stencil at fine grain: 1024 blocks × 1024 cells ×
// 5 sweeps, 5121 nodes of about 4 µs each, 2.6 predecessors per node.
var heatFine = batchDef{"heat-fine", func(uint64) func() instance {
	st := stencil.New(stencil.Config{
		Name: "heat", Description: "Heat diffusion stencil",
		Blocks: 1024, CellsPerBlock: 1024, Iterations: 5,
		FlopsPerCell: 4, BytesPerCell: 16, HaloBytes: 64,
	})
	return func() instance { return st.NewReal() }
}}

// pagerankDense is PageRank over a seeded twitter-like crawl of 30 000
// pages: 200 blocks × 5 iterations, 1001 nodes with about 160
// predecessors each.
var pagerankDense = batchDef{"pagerank-dense", func(seed uint64) func() instance {
	pr := pagerank.New(pagerank.Config{
		Name: "page-twitter-2010", Description: "PageRank, twitter-like crawl",
		Web: twitterWeb(seed), Blocks: 200, Iterations: 5, Damping: 0.85,
	})
	return func() instance { return pr.NewReal() }
}}

// twitterWeb is the crawl pagerank-dense runs on, seeded by the workload
// seed.
func twitterWeb(seed uint64) graphs.WebConfig {
	web := graphs.Twitter2010(30000)
	web.Seed = seed
	return web
}

// batch is a set-up batch workload: one persistent engine over a wrapSpec
// whose instance is swapped before every execution.
type batch struct {
	cfg     config
	newInst func() instance
	ref     float64 // checksum of the serial run made in set-up
	spec    *wrapSpec
	sink    core.Key
	eng     *core.Engine
	rec     *recorder
}

// batchSamples are the timings of one measured phase, in milliseconds.
type batchSamples struct {
	engine, serial []float64
	// pairSpeedup is serial ÷ engine time of each pair whose samples
	// both passed, taken back to back.
	pairSpeedup []float64
	traced      bool
	execs       []execSample // traced phases only
	lastKids    []span       // children of the last traced execution
	lastRoot    int          // its index in rec.roots
}

const (
	setupRepeats = 5 // full set-ups per run; setup_s is their median
	warmups      = 3 // untimed executions that end each set-up
	// minBatchSamples timed executions leave ten samples beyond p90.
	minBatchSamples = 100
	// maxPhase caps one measured phase, keeping a run inside its time
	// limit on a slow host.
	maxPhase = 100 * time.Second
)

// setupBatch builds the data, the serial reference, the engine and its
// warm-up executions.
func setupBatch(def batchDef, cfg config, res *result) (*batch, error) {
	newInst := def.build(cfg.seed)
	ref := newInst()
	ref.RunSerial()
	b := &batch{cfg: cfg, newInst: newInst, ref: ref.Checksum(), spec: &wrapSpec{}, rec: newRecorder()}
	inst := newInst()
	b.spec.cur, b.sink = inst.Spec(cfg.p)
	pol := core.NabbitCPolicy()
	pol.Seed = cfg.seed
	eng, err := core.NewEngine(b.spec, core.Options{Workers: cfg.p, Policy: pol})
	if err != nil {
		return nil, fmt.Errorf("%s: NewEngine: %w", def.name, err)
	}
	b.eng = eng
	for range warmups {
		if _, err := b.execute(b.newInst(), res, nil); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return b, nil
}

func (b *batch) verify(inst instance, what string) error {
	if got := inst.Checksum(); got != b.ref {
		return fmt.Errorf("%s checksum %v, serial reference %v", what, got, b.ref)
	}
	return nil
}

// execute runs inst's graph once through Execute and checks its output.
// It returns the execution's time in ms, or -1 when it failed (counted in
// res); only a backend mismatch is returned as an error. When s is traced,
// the execution's memory statistics and drained children go to s.
func (b *batch) execute(inst instance, res *result, s *batchSamples) (float64, error) {
	b.spec.cur, _ = inst.Spec(b.cfg.p)
	traced := s != nil && s.traced
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	t0 := b.rec.now()
	st, err := b.eng.Execute(b.sink)
	t1 := b.rec.now()
	root := b.rec.addRoot(kindExecute, t0, t1, 0)
	if err != nil {
		err = fmt.Errorf("Execute: %w", err)
	} else if berr := checkBackends(st); berr != nil {
		return -1, berr
	}
	var kids childTotals
	var self int64
	if traced {
		runtime.ReadMemStats(&m1)
		s.lastRoot = len(b.rec.roots) - 1
		var derr error
		kids, self, derr = b.rec.drain(root, b.cfg.p, &s.lastKids)
		if err == nil {
			err = derr
		}
	}
	if err == nil {
		err = b.verify(inst, "Execute")
	}
	res.check(b.cfg.log, err)
	if err != nil {
		return -1, nil
	}
	if traced {
		s.execs = append(s.execs, newExecSample(st, root, kids, self, &m0, &m1))
	}
	return float64(t1-t0) / 1e6, nil
}

// serial times RunSerial on inst and checks its output.
func (b *batch) serial(inst instance, res *result) float64 {
	t0 := b.rec.now()
	inst.RunSerial()
	t1 := b.rec.now()
	b.rec.addRoot(kindSerial, t0, t1, 0)
	if err := b.verify(inst, "RunSerial"); err != nil {
		res.check(b.cfg.log, err)
		return -1
	}
	res.check(b.cfg.log, nil)
	return float64(t1-t0) / 1e6
}

// measure runs pairs of one engine and one serial sample, alternating
// which goes first so host drift hits both alike, for d and at least
// minSamples engine samples. Both instances of a pair are allocated, and
// the heap collected, before either is timed: the harness's own
// allocation then starts no collection inside a timed interval.
func (b *batch) measure(res *result, d time.Duration, minSamples int, traced bool) (*batchSamples, error) {
	s := &batchSamples{traced: traced}
	if traced {
		b.rec.reserve(2 * b.spec.KeyBound())
		b.spec.rec = b.rec
		defer func() { b.spec.rec = nil }()
	}
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= d && len(s.engine) >= minSamples) || el >= maxPhase {
			return s, nil
		}
		ei, si := b.newInst(), b.newInst()
		b.cfg.heap.collect()
		var ms float64
		var err error
		if i%2 == 0 {
			ms, err = b.execute(ei, res, s)
		}
		sms := b.serial(si, res)
		if sms >= 0 {
			s.serial = append(s.serial, sms)
		}
		if i%2 == 1 {
			ms, err = b.execute(ei, res, s)
		}
		if err != nil {
			return nil, err
		}
		if ms >= 0 {
			s.engine = append(s.engine, ms)
		}
		if ms > 0 && sms > 0 {
			s.pairSpeedup = append(s.pairSpeedup, sms/ms)
		}
	}
}

// runBatch is one run of a batch workload.
func runBatch(def batchDef, cfg config, res *result) error {
	setupS := make([]float64, 0, setupRepeats)
	var b *batch
	for range setupRepeats {
		if b != nil {
			b.eng.Close()
		}
		t0 := time.Now()
		var err error
		if b, err = setupBatch(def, cfg, res); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cfg.heap.collect()
	}
	defer b.eng.Close()
	m := res.metrics

	d := cfg.seconds
	if cfg.traced {
		d /= 2
	}
	s, err := b.measure(res, d, minBatchSamples, false)
	if err != nil {
		return err
	}
	runP50 := pct(s.engine, 50)
	if !cfg.traced {
		if beyond(len(s.engine), 90) < 10 {
			return fmt.Errorf("%s: %d executions leave fewer than ten beyond p90", def.name, len(s.engine))
		}
		cfg.note("samples", len(s.engine))
		cfg.note("run_ms_p50", runP50)
		cfg.note("run_ms_p90", pct(s.engine, 90))
		cfg.note("serial_ms_p50", pct(s.serial, 50))
		cfg.note("graphs_per_s", ratio(float64(len(s.engine)), sum(s.engine)/1e3))
		m["speedup_vs_serial"] = pct(s.pairSpeedup, 50)
		m["setup_s"] = pct(setupS, 50)
		m["mem_peak_mb"] = cfg.heap.mb()
		return nil
	}

	ts, err := b.measure(res, d, 0, true)
	if err != nil {
		return err
	}
	cfg.note("traced_execs", len(ts.execs))
	coreMetrics(m, ts.execs, cfg.p)
	m["bench.serial_ms_p50"] = pct(ts.serial, 50)
	m["trace.overhead_frac"] = ratio(pct(ts.engine, 50), runP50) - 1
	if err := b.submitWait(res, m); err != nil {
		return err
	}
	spec, _ := b.newInst().Spec(cfg.p)
	if m["core.discover_ns_per_node"], err = discoverNS(spec, cfg.p, b.rec); err != nil {
		return err
	}
	b.openMP(res, m)
	layerMetrics(cfg, res, m, b.rec)
	return b.rec.write(cfg.spansPath(), ts.lastRoot, ts.lastKids)
}

// submitWaitSamples is how many whole-graph Submit/Wait round trips a
// traced batch run times, for the admission and wait layer metrics.
const submitWaitSamples = 20

// submitWait times whole-graph Submit/Wait round trips.
func (b *batch) submitWait(res *result, m map[string]float64) error {
	var sub, wait []float64
	for range submitWaitSamples {
		inst := b.newInst()
		b.spec.cur, _ = inst.Spec(b.cfg.p)
		t0 := b.rec.now()
		tk, err := b.eng.Submit(b.sink)
		t1 := b.rec.now()
		b.rec.addRoot(kindSubmit, t0, t1, 0)
		if err != nil {
			res.check(b.cfg.log, fmt.Errorf("Submit: %w", err))
			continue
		}
		st, err := tk.Wait()
		t2 := b.rec.now()
		b.rec.addRoot(kindWait, t1, t2, 0)
		if err != nil {
			res.check(b.cfg.log, fmt.Errorf("Wait: %w", err))
			continue
		}
		if err := checkBackends(st); err != nil {
			return err
		}
		sub = append(sub, float64(t1-t0)/1e3)
		wait = append(wait, float64(t2-t1)/1e3)
		res.check(b.cfg.log, b.verify(inst, "Submit/Wait"))
	}
	m["core.submit_us_p50"] = pct(sub, 50)
	m["core.submit_us_p99"] = pct(sub, 99)
	m["core.wait_us_p50"] = pct(wait, 50)
	return nil
}

// ompSamples is how many runs of each OpenMP schedule a traced batch run
// times.
const ompSamples = 9

// openMP times the kernel under the omp team's static and guided
// schedules, alternating them, and checks each output.
func (b *batch) openMP(res *result, m map[string]float64) {
	team := omp.NewTeam(b.cfg.p)
	defer team.Close()
	var static, guided []float64
	for i := range 2 * ompSamples {
		sched, kind, dst := omp.Static, kindOMPStatic, &static
		if i%2 == 1 {
			sched, kind, dst = omp.Guided, kindOMPGuided, &guided
		}
		inst := b.newInst()
		runtime.GC()
		t0 := b.rec.now()
		inst.RunOpenMP(team, sched)
		t1 := b.rec.now()
		b.rec.addRoot(kind, t0, t1, 0)
		if err := b.verify(inst, "RunOpenMP/"+sched.String()); err != nil {
			res.check(b.cfg.log, err)
			continue
		}
		res.check(b.cfg.log, nil)
		*dst = append(*dst, float64(t1-t0)/1e6)
	}
	m["omp.static_ms_p50"] = pct(static, 50)
	m["omp.guided_ms_p50"] = pct(guided, 50)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapPeak tracks the largest heap left live after a forced collection,
// over the checkpoints of a run: after each set-up, before each batch
// pair is timed, after each submit-stream slice. Unlike the memory the
// runtime has obtained from the OS, it does not depend on when the
// collector happened to run.
type heapPeak struct{ max uint64 }

func (h *heapPeak) collect() {
	// The second collection frees what the first only moved to the
	// sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.max = max(h.max, ms.HeapAlloc)
}

func (h *heapPeak) mb() float64 { return float64(h.max) / (1 << 20) }
