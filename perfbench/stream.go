package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nabbitc/internal/core"
	"nabbitc/internal/omp"
	"nabbitc/internal/xrand"
)

// submit-stream pushes many small fan-in cones through one engine with
// Submit/Wait in a closed loop: streamCallers callers each keep
// streamWindow graphs outstanding, twice the engine's default admission
// bound of 4 × workers on two workers, so admission blocks.
const (
	streamCallers = 2
	streamWindow  = 8
	streamSlots   = streamCallers * streamWindow
	maxWidth      = 64
	slotStride    = maxWidth + 1 // leaves 0..63, then the sink
	// leafIters xorshift rounds make about 1 µs of arithmetic per leaf.
	leafIters = 400
	// streamSlices split a measured phase; serial chunks run between
	// them so host drift hits engine and serial samples alike, and each
	// slice's speedup is taken against the chunks just before it.
	streamSlices = 40
	// serialChunk cones, an equal number of each width, make one serial
	// (and one OpenMP) sample.
	serialChunk = 86 * len(streamWidths)
	serialReps  = 2 // serial samples between two slices
	// warmupGraphs per caller end each submit-stream set-up.
	warmupGraphs = 1000
	// streamExecs graphs of the traced run go through Execute, whose
	// stats (unlike Submit's) carry the per-worker counters.
	streamExecs = 400
	// streamSpanCap bounds the child spans of one traced slice.
	streamSpanCap = 1 << 18
)

// streamWidths are the leaf counts a cone is drawn from.
var streamWidths = [...]int{4, 16, 64}

// leafWork is a leaf's arithmetic: a fixed number of xorshift rounds
// seeded by its key.
func leafWork(k core.Key) uint64 {
	x := uint64(k)*0x9E3779B97F4A7C15 | 1
	for range leafIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// streamSpec holds streamSlots cones side by side: slot s owns keys
// [s·65, s·65+64), leaves first and the sink last. The caller owning a
// slot sets its width before each Submit and checks the slot after Wait,
// so a slot has at most one graph in flight. Each key counts its
// Compute calls, which is how exactly-once execution is checked.
type streamSpec struct {
	p     int
	width [streamSlots]int // index into streamWidths
	preds [streamSlots][len(streamWidths)][]core.Key
	count [streamSlots * slotStride]atomic.Int32
	out   [streamSlots * slotStride]uint64
	want  [streamSlots * slotStride]uint64
}

func newStreamSpec(p int) *streamSpec {
	s := &streamSpec{p: p}
	for slot := range streamSlots {
		base := core.Key(slot * slotStride)
		for wi, w := range streamWidths {
			ps := make([]core.Key, w)
			for i := range ps {
				ps[i] = base + core.Key(i)
			}
			s.preds[slot][wi] = ps
		}
		for i := range maxWidth {
			s.want[int(base)+i] = leafWork(base + core.Key(i))
		}
	}
	return s
}

func sinkOf(slot int) core.Key { return core.Key(slot*slotStride + maxWidth) }

func (s *streamSpec) Predecessors(k core.Key) []core.Key {
	slot, i := int(k)/slotStride, int(k)%slotStride
	if i != maxWidth {
		return nil
	}
	return s.preds[slot][s.width[slot]]
}

func (s *streamSpec) Color(k core.Key) int {
	slot, i := int(k)/slotStride, int(k)%slotStride
	if i == maxWidth {
		return slot % s.p
	}
	return i * s.p / maxWidth
}

func (s *streamSpec) Compute(k core.Key) {
	s.count[k].Add(1)
	if int(k)%slotStride != maxWidth {
		s.out[k] = leafWork(k)
	}
}

func (s *streamSpec) FootprintOf(core.Key) core.Footprint { return core.Footprint{Compute: 1} }

func (s *streamSpec) KeyBound() int { return len(s.count) }

// verify checks that the graph just completed in slot computed each of
// its leaves and its sink exactly once with the right result, and
// nothing else of the slot; it clears the slot for its next graph.
func (s *streamSpec) verify(slot int) error {
	var err error
	w := streamWidths[s.width[slot]]
	base := slot * slotStride
	for i := range slotStride {
		k := base + i
		want := int32(0)
		if i < w || i == maxWidth {
			want = 1
		}
		if got := s.count[k].Swap(0); got != want && err == nil {
			err = fmt.Errorf("slot %d (width %d): key %d computed %d times, want %d", slot, w, k, got, want)
		}
		if i < w && s.out[k] != s.want[k] && err == nil {
			err = fmt.Errorf("slot %d: leaf %d computed %#x, want %#x", slot, k, s.out[k], s.want[k])
		}
		s.out[k] = 0
	}
	return err
}

// stream is a set-up submit-stream workload.
type stream struct {
	cfg     config
	spec    *streamSpec
	wrap    *wrapSpec
	eng     *core.Engine
	rec     *recorder
	callers [streamCallers]*streamCaller
	// serialWidths is the fixed cone mix of one serial or OpenMP chunk.
	serialWidths [serialChunk]int
}

// streamCaller is one closed-loop client. Its fields are written only by
// its own goroutine while a slice runs.
type streamCaller struct {
	id        int
	rng       *xrand.Rand
	res       result
	lat       []float64 // offer → Wait return, ms
	subUS     []float64 // time inside Submit, µs
	waitUS    []float64 // time inside Wait, µs
	roots     []span
	completed int64
	fatal     error
}

// pending is a submitted graph awaiting Wait.
type pending struct {
	tk      *core.Ticket
	slot    int
	offered int64
}

func setupStream(cfg config, res *result) (*stream, error) {
	st := &stream{cfg: cfg, spec: newStreamSpec(cfg.p), rec: newRecorder()}
	st.wrap = &wrapSpec{cur: st.spec}
	for i := range st.serialWidths {
		st.serialWidths[i] = i % len(streamWidths)
	}
	mix := xrand.New(cfg.seed ^ 0x5eed)
	mix.Shuffle(serialChunk, func(i, j int) {
		st.serialWidths[i], st.serialWidths[j] = st.serialWidths[j], st.serialWidths[i]
	})
	for c := range st.callers {
		st.callers[c] = &streamCaller{
			id:  c,
			rng: xrand.NewWorker(cfg.seed, c),
			lat: make([]float64, 0, sliceCap(cfg)),
		}
	}
	pol := core.NabbitCPolicy()
	pol.Seed = cfg.seed
	eng, err := core.NewEngine(st.wrap, core.Options{Workers: cfg.p, Policy: pol})
	if err != nil {
		return nil, fmt.Errorf("submit-stream: NewEngine: %w", err)
	}
	st.eng = eng
	if err := st.slice(res, time.Hour, warmupGraphs, false); err != nil {
		eng.Close()
		return nil, err
	}
	st.reset()
	return st, nil
}

// reset drops the callers' samples (after warm-up, and between phases).
func (st *stream) reset() {
	for _, c := range st.callers {
		c.lat, c.subUS, c.waitUS, c.roots = c.lat[:0], c.subUS[:0], c.waitUS[:0], c.roots[:0]
		c.completed = 0
	}
}

// slice runs the closed loop on every caller until d has passed or each
// caller has offered limit graphs (or, when traced, the span buffer is
// nearly full), then drains the windows. Callers' results merge into res.
func (st *stream) slice(res *result, d time.Duration, limit int, traced bool) error {
	deadline := st.rec.now() + int64(d)
	var wg sync.WaitGroup
	for _, c := range st.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.loop(c, deadline, limit, traced)
		}()
	}
	wg.Wait()
	for _, c := range st.callers {
		res.attempted += c.res.attempted
		res.failed += c.res.failed
		c.res = result{}
		st.rec.roots = append(st.rec.roots, c.roots...)
		c.roots = c.roots[:0]
		if c.fatal != nil {
			return c.fatal
		}
	}
	return nil
}

func (st *stream) loop(c *streamCaller, deadline int64, limit int, traced bool) {
	var win [streamWindow]pending
	head, n, offered := 0, 0, 0
	for {
		stop := offered >= limit || st.rec.now() >= deadline || (traced && st.rec.nearlyFull())
		if n == streamWindow || (stop && n > 0) {
			st.finish(c, win[head], traced)
			if c.fatal != nil {
				return
			}
			head, n = (head+1)%streamWindow, n-1
			continue
		}
		if stop {
			return
		}
		// Window position p always maps to the same slot, and the
		// oldest graph (the only one that can hold it) has been waited.
		p := (head + n) % streamWindow
		slot := c.id*streamWindow + p
		st.spec.width[slot] = c.rng.Intn(len(streamWidths))
		t0 := st.rec.now()
		tk, err := st.eng.Submit(sinkOf(slot))
		t1 := st.rec.now()
		offered++
		if err != nil {
			c.res.check(st.cfg.log, fmt.Errorf("Submit: %w", err))
			continue
		}
		if traced {
			c.roots = append(c.roots, span{kind: kindSubmit, start: t0, end: t1})
			c.subUS = append(c.subUS, float64(t1-t0)/1e3)
		}
		win[p] = pending{tk, slot, t0}
		n++
	}
}

// finish waits for a pending graph, records its latency and checks it.
func (st *stream) finish(c *streamCaller, pg pending, traced bool) {
	t0 := st.rec.now()
	stats, err := pg.tk.Wait()
	t1 := st.rec.now()
	verr := st.spec.verify(pg.slot)
	if err != nil {
		c.res.check(st.cfg.log, fmt.Errorf("Wait: %w", err))
		return
	}
	if err := checkBackends(stats); err != nil {
		c.fatal = err
		return
	}
	c.res.check(st.cfg.log, verr)
	if verr != nil {
		return
	}
	c.lat = append(c.lat, float64(t1-pg.offered)/1e6)
	c.completed++
	if traced {
		c.roots = append(c.roots, span{kind: kindWait, start: t0, end: t1})
		c.waitUS = append(c.waitUS, float64(t1-t0)/1e3)
	}
}

// serial computes one chunk of cones on the calling goroutine, checking
// every leaf, and returns its time in ms.
func (st *stream) serial(res *result) float64 {
	s := st.spec
	t0 := st.rec.now()
	var got uint64
	for g, wi := range st.serialWidths {
		base := core.Key((g % streamSlots) * slotStride)
		for i := range streamWidths[wi] {
			got ^= leafWork(base + core.Key(i))
		}
	}
	t1 := st.rec.now()
	st.rec.addRoot(kindSerial, t0, t1, serialChunk)
	var want uint64
	for g, wi := range st.serialWidths {
		base := (g % streamSlots) * slotStride
		for i := range streamWidths[wi] {
			want ^= s.want[base+i]
		}
	}
	if got != want {
		res.check(st.cfg.log, fmt.Errorf("serial chunk digest %#x, want %#x", got, want))
		return -1
	}
	res.check(st.cfg.log, nil)
	return float64(t1-t0) / 1e6
}

// streamRate bounds the cones per second one caller completes, for sizing
// the latency buffers up front: heapPeak then measures the same buffers
// whatever the throughput. It is about twice the rate on a 2-CPU host.
const streamRate = 50_000

// sliceCap is the latency capacity of one caller for one slice.
func sliceCap(cfg config) int {
	return int(cfg.seconds.Seconds()*streamRate/streamSlices) + 1024
}

// streamSamples are the results of one measured phase.
type streamSamples struct {
	lat, serial   []float64 // ms
	sliceSpeedup  []float64 // each slice's cones per second ÷ the serial rate just before it
	subUS, waitUS []float64
	completed     int64
	wallNS        int64
	mallocs       uint64
	bytes         uint64
	gcs           uint64
}

// measure runs streamSlices slices filling d, with serialReps serial
// chunks before each. When traced, the wrapper records child spans, which
// are drained after each slice: this phase measures what tracing costs
// the stream, and the Submit and Wait spans.
func (st *stream) measure(res *result, d time.Duration, traced bool) (*streamSamples, error) {
	s := &streamSamples{lat: make([]float64, 0, streamCallers*streamSlices*sliceCap(st.cfg))}
	if traced {
		st.rec.reserve(streamSpanCap)
		st.wrap.rec = st.rec
		defer func() { st.wrap.rec = nil }()
	}
	for range streamSlices {
		n0 := len(s.serial)
		for range serialReps {
			if ms := st.serial(res); ms >= 0 {
				s.serial = append(s.serial, ms)
			}
		}
		serialMS := pct(s.serial[n0:], 50)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := st.rec.now()
		if err := st.slice(res, d/streamSlices, math.MaxInt, traced); err != nil {
			return nil, err
		}
		t1 := st.rec.now()
		runtime.ReadMemStats(&m1)
		s.wallNS += t1 - t0
		s.mallocs += m1.Mallocs - m0.Mallocs
		s.bytes += m1.TotalAlloc - m0.TotalAlloc
		s.gcs += uint64(m1.NumGC - m0.NumGC)
		st.cfg.heap.collect()
		if traced {
			if _, _, err := st.rec.drain(span{start: t0, end: t1}, st.cfg.p, nil); err != nil {
				res.check(st.cfg.log, err)
			}
		}
		var completed int64
		for _, c := range st.callers {
			s.lat = append(s.lat, c.lat...)
			s.subUS = append(s.subUS, c.subUS...)
			s.waitUS = append(s.waitUS, c.waitUS...)
			completed += c.completed
		}
		s.completed += completed
		if serialMS > 0 && t1 > t0 {
			rate := float64(completed) / (float64(t1-t0) / 1e9)
			s.sliceSpeedup = append(s.sliceSpeedup, rate/(float64(serialChunk)/(serialMS/1e3)))
		}
		st.reset()
	}
	return s, nil
}

// executes runs streamExecs cones of the seeded mix one at a time through
// Execute with tracing on, for the per-worker core metrics.
func (st *stream) executes(res *result) ([]execSample, []span, int, error) {
	st.rec.reserve(2 * slotStride)
	st.wrap.rec = st.rec
	defer func() { st.wrap.rec = nil }()
	mix := xrand.New(st.cfg.seed ^ 0xe7ec)
	var execs []execSample
	var kids []span
	last := -1
	for i := range streamExecs {
		slot := i % streamSlots
		st.spec.width[slot] = mix.Intn(len(streamWidths))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := st.rec.now()
		stats, err := st.eng.Execute(sinkOf(slot))
		t1 := st.rec.now()
		runtime.ReadMemStats(&m1)
		root := st.rec.addRoot(kindExecute, t0, t1, 0)
		t, self, derr := st.rec.drain(root, st.cfg.p, &kids)
		verr := st.spec.verify(slot)
		if err != nil {
			res.check(st.cfg.log, fmt.Errorf("Execute: %w", err))
			continue
		}
		if err := checkBackends(stats); err != nil {
			return nil, nil, 0, err
		}
		if derr != nil {
			verr = derr
		}
		res.check(st.cfg.log, verr)
		if verr == nil {
			execs = append(execs, newExecSample(stats, root, t, self, &m0, &m1))
			last = len(st.rec.roots) - 1
		}
	}
	return execs, kids, last, nil
}

// openMP times one chunk of cones as OpenMP sweeps (one sweep per cone,
// one iteration per leaf) under the static and guided schedules.
func (st *stream) openMP(res *result, m map[string]float64) {
	team := omp.NewTeam(st.cfg.p)
	defer team.Close()
	out := make([]uint64, serialChunk*maxWidth)
	var static, guided []float64
	for i := range 2 * ompSamples {
		sched, kind, dst := omp.Static, kindOMPStatic, &static
		if i%2 == 1 {
			sched, kind, dst = omp.Guided, kindOMPGuided, &guided
		}
		clear(out)
		t0 := st.rec.now()
		team.ForSweeps(serialChunk, maxWidth, sched, func(g, leaf, _ int) {
			if leaf < streamWidths[st.serialWidths[g]] {
				out[g*maxWidth+leaf] = leafWork(core.Key((g%streamSlots)*slotStride + leaf))
			}
		})
		t1 := st.rec.now()
		st.rec.addRoot(kind, t0, t1, serialChunk)
		var err error
		for g, wi := range st.serialWidths {
			base := (g % streamSlots) * slotStride
			for leaf := range streamWidths[wi] {
				if out[g*maxWidth+leaf] != st.spec.want[base+leaf] && err == nil {
					err = fmt.Errorf("OpenMP %v: cone %d leaf %d wrong", sched, g, leaf)
				}
			}
		}
		res.check(st.cfg.log, err)
		if err == nil {
			*dst = append(*dst, float64(t1-t0)/1e6)
		}
	}
	m["omp.static_ms_p50"] = pct(static, 50)
	m["omp.guided_ms_p50"] = pct(guided, 50)
}

// runStream is one run of submit-stream.
func runStream(cfg config, res *result) error {
	setupS := make([]float64, 0, setupRepeats)
	var st *stream
	for range setupRepeats {
		if st != nil {
			st.eng.Close()
		}
		t0 := time.Now()
		var err error
		if st, err = setupStream(cfg, res); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cfg.heap.collect()
	}
	defer st.eng.Close()
	m := res.metrics

	d := cfg.seconds
	if cfg.traced {
		d /= 2
	}
	s, err := st.measure(res, d, false)
	if err != nil {
		return err
	}
	runP50 := pct(s.lat, 50)
	if !cfg.traced {
		gps := ratio(float64(s.completed), float64(s.wallNS)/1e9)
		cfg.note("samples", len(s.lat))
		cfg.note("lat_ms_p50", runP50)
		cfg.note("lat_ms_p99", pct(s.lat, 99))
		cfg.note("graphs_per_s", gps)
		m["speedup_vs_serial"] = pct(s.sliceSpeedup, 50)
		m["setup_s"] = pct(setupS, 50)
		m["mem_peak_mb"] = cfg.heap.mb()
		return nil
	}

	ts, err := st.measure(res, d, true)
	if err != nil {
		return err
	}
	cfg.note("traced_graphs", ts.completed)
	execs, kids, last, err := st.executes(res)
	if err != nil {
		return err
	}
	// Submit-mode stats carry no per-worker counters, so the core and
	// callback metrics come from Execute calls over the same cone mix;
	// the allocation, Submit and Wait figures come from the stream itself.
	coreMetrics(m, execs, cfg.p)
	n := float64(ts.completed)
	m["runtime.allocs_per_exec"] = ratio(float64(ts.mallocs), n)
	m["runtime.bytes_per_exec"] = ratio(float64(ts.bytes), n)
	m["runtime.gc_cycles_per_exec"] = ratio(float64(ts.gcs), n)
	m["core.submit_us_p50"] = pct(ts.subUS, 50)
	m["core.submit_us_p99"] = pct(ts.subUS, 99)
	m["core.wait_us_p50"] = pct(ts.waitUS, 50)
	m["bench.serial_ms_p50"] = pct(ts.serial, 50)
	m["trace.overhead_frac"] = ratio(pct(ts.lat, 50), runP50) - 1
	for i := range st.spec.width {
		st.spec.width[i] = len(streamWidths) - 1
	}
	if m["core.discover_ns_per_node"], err = discoverNS(st.spec, cfg.p, st.rec); err != nil {
		return err
	}
	st.openMP(res, m)
	layerMetrics(cfg, res, m, st.rec)
	return st.rec.write(cfg.spansPath(), last, kids)
}
