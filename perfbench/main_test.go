package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"nabbitc/internal/bench/stencil"
	"nabbitc/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		p    int
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %d) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := pct([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("pct sorts its input: got %v, want 2", got)
	}
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct of no samples = %v, want 0", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, p, want int }{
		{100, 90, 10},
		{99, 90, 9},
		{1000, 99, 10},
		{999, 99, 9},
		{10, 50, 5},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if beyond(minBatchSamples, 90) < 10 {
		t.Error("the minimum batch sample count leaves fewer than ten samples beyond p90")
	}
}

func TestSelfTime(t *testing.T) {
	root := span{start: 0, end: 100}
	for _, c := range []struct {
		name    string
		workers int
		kids    []span
		want    int64
	}{
		{"no children", 2, nil, 200},
		{"overlapping parallel children each count", 2, []span{{start: 10, end: 60}, {start: 30, end: 80}}, 100},
		{"child clipped to the root", 1, []span{{start: 90, end: 120}}, 90},
		{"child outside the root", 1, []span{{start: 150, end: 160}}, 100},
		{"children cover every worker", 2, []span{{start: 0, end: 100}, {start: 0, end: 100}}, 0},
	} {
		if got := selfTime(root, c.workers, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDrainSubtractsChildrenAndColor(t *testing.T) {
	rec := newRecorder()
	rec.reserve(0) // 16 spans per shard
	rec.addChild(1, kindCompute, 10, 40, 0)
	rec.addChild(2, kindPreds, 20, 30, 3)
	cell := rec.colorCell(5)
	cell.calls.Add(4)
	cell.ns.Add(6)
	var kids []span
	tot, self, err := rec.drain(span{start: 0, end: 50}, 2, &kids)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workers × 50 − 30 (Compute) − 10 (Predecessors) − 6 (Color)
	if self != 54 {
		t.Errorf("self = %d, want 54", self)
	}
	want := childTotals{computeCalls: 1, computeNS: 30, predsCalls: 1, predsNS: 10, edges: 3, colorCalls: 4, colorNS: 6}
	if tot != want {
		t.Errorf("totals = %+v, want %+v", tot, want)
	}
	if len(kids) != 2 || rec.child[1].next.Load() != 0 || cell.calls.Load() != 0 {
		t.Errorf("drain left %d kids copied, next %d, color calls %d", len(kids), rec.child[1].next.Load(), cell.calls.Load())
	}
	for range 17 {
		rec.addChild(3, kindCompute, 0, 1, 0)
	}
	if _, _, err := rec.drain(span{end: 1}, 1, nil); err == nil {
		t.Error("drain accepted an overflowed buffer")
	}
}

func TestRatioBases(t *testing.T) {
	if ratio(5, 0) != 0 {
		t.Error("ratio with an empty base is not 0")
	}
	execs := []execSample{{
		durNS: 100, selfNS: 80, idleNS: 20, nodes: 10,
		kids:          childTotals{computeCalls: 10, computeNS: 500, predsCalls: 10, predsNS: 50, edges: 30, colorCalls: 40},
		stealAttempts: 12, stealsOK: 3, mallocs: 7, bytes: 70, gcs: 1,
	}}
	m := map[string]float64{}
	coreMetrics(m, execs, 2)
	for name, want := range map[string]float64{
		"core.self_ns_per_node":        8,    // self ÷ nodes
		"core.busy_ns_per_node":        6,    // (self − idle) ÷ nodes
		"core.overhead_ns_per_edge":    2,    // (self − idle) ÷ edges
		"core.idle_frac":               0.1,  // idle ÷ (workers × duration)
		"core.steal_attempts_per_node": 1.2,  // attempts ÷ nodes
		"core.steal_hit_ratio":         0.25, // hits ÷ attempts
		"bench.compute_ns_per_node":    50,   // Compute ns ÷ Compute calls
		"bench.preds_ns_per_call":      5,
		"bench.compute_calls_per_node": 1,
		"bench.color_calls_per_node":   4,
		"bench.edges_per_node":         3,
		"runtime.allocs_per_exec":      7,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

func TestMetricGrammar(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkDefs(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range [][]metricDef{
		{{"_x", "ms"}},
		{{"a b", "ms"}},
		{{strings.Repeat("a", 65), "ms"}},
		{{"x", "µs"}},
		{{"x", ""}},
		{{"x", "ms"}, {"x", "s"}},
	} {
		if checkDefs(bad) == nil {
			t.Errorf("checkDefs accepted %v", bad)
		}
	}
}

// TestBenchmarkJSONMatches pins the metric lists to BENCHMARK.json.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark %s %s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i])
		}
	}
}

func TestBackendGuard(t *testing.T) {
	if err := checkBackends(&core.Stats{NodeBackend: "dense", DequeBackend: "mutex"}); err != nil {
		t.Errorf("the defined backends were refused: %v", err)
	}
	for _, st := range []core.Stats{
		{NodeBackend: "sharded", DequeBackend: "mutex"},
		{NodeBackend: "dense", DequeBackend: "block"},
	} {
		if checkBackends(&st) == nil {
			t.Errorf("backends %s/%s were accepted", st.NodeBackend, st.DequeBackend)
		}
	}
}

func TestWrapperForwardsBoundAndFootprint(t *testing.T) {
	spec, sink := smallHeat.build(1)().Spec(2)
	w := &wrapSpec{cur: spec}
	if w.KeyBound() != core.KeyBoundOf(spec) || w.KeyBound() == 0 {
		t.Errorf("KeyBound = %d, wrapped spec declares %d", w.KeyBound(), core.KeyBoundOf(spec))
	}
	if w.FootprintOf(3) != spec.FootprintOf(3) {
		t.Error("FootprintOf is not forwarded")
	}
	eng, err := core.NewEngine(w, core.Options{Workers: 2, Policy: core.NabbitCPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Execute(sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBackends(st); err != nil {
		t.Error(err)
	}
}

// smallHeat is a heat stencil small enough for unit tests.
var smallHeat = batchDef{"heat-small", func(uint64) func() instance {
	st := stencil.New(stencil.Config{Name: "heat", Blocks: 16, CellsPerBlock: 64, Iterations: 3})
	return func() instance { return st.NewReal() }
}}

// corrupted reports a checksum its kernel did not compute.
type corrupted struct{ instance }

func (c corrupted) Checksum() float64 { return c.instance.Checksum() + 1 }

func testConfig() config {
	return config{seed: 1, seconds: time.Second, p: 2, log: io.Discard, heap: &heapPeak{}, stamp: map[string]any{}}
}

func TestCorruptedBatchResultIsCounted(t *testing.T) {
	var res result
	b, err := setupBatch(smallHeat, testConfig(), &res)
	if err != nil {
		t.Fatal(err)
	}
	defer b.eng.Close()
	if res.failed != 0 || res.attempted != warmups {
		t.Fatalf("set-up: %d of %d failed, want 0 of %d", res.failed, res.attempted, warmups)
	}
	if ms, err := b.execute(corrupted{b.newInst()}, &res, nil); err != nil || ms >= 0 {
		t.Errorf("corrupted execution: ms %v, err %v; want a counted failure", ms, err)
	}
	if ms := b.serial(corrupted{b.newInst()}, &res); ms >= 0 {
		t.Errorf("corrupted serial run timed at %v ms", ms)
	}
	if ms, err := b.execute(b.newInst(), &res, nil); err != nil || ms < 0 {
		t.Errorf("clean execution after failures: ms %v, err %v", ms, err)
	}
	if res.failed != 2 || res.attempted != warmups+3 {
		t.Errorf("%d of %d failed, want 2 of %d", res.failed, res.attempted, warmups+3)
	}
	line, err := (&result{attempted: res.attempted, failed: res.failed, metrics: map[string]float64{}}).encode(nil)
	if err != nil || !strings.Contains(string(line), `"correct":false`) {
		t.Errorf("result with failures encodes as %s (%v)", line, err)
	}
}

func TestBatchPairSpeedup(t *testing.T) {
	var res result
	b, err := setupBatch(smallHeat, testConfig(), &res)
	if err != nil {
		t.Fatal(err)
	}
	defer b.eng.Close()
	s, err := b.measure(&res, 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pairSpeedup) != len(s.engine) || len(s.engine) != len(s.serial) || len(s.engine) < 4 {
		t.Fatalf("%d pair speedups from %d engine and %d serial samples", len(s.pairSpeedup), len(s.engine), len(s.serial))
	}
	for i, x := range s.pairSpeedup {
		if x != s.serial[i]/s.engine[i] {
			t.Errorf("pair %d: speedup %v, serial %v ÷ engine %v", i, x, s.serial[i], s.engine[i])
		}
	}
}

func TestStreamVerifyCountsEachLeafOnce(t *testing.T) {
	s := newStreamSpec(2)
	const slot = 3
	s.width[slot] = 1 // 16 leaves
	run := func(extra ...core.Key) error {
		for i := range 16 {
			s.Compute(core.Key(slot*slotStride + i))
		}
		s.Compute(sinkOf(slot))
		for _, k := range extra {
			s.Compute(k)
		}
		return s.verify(slot)
	}
	if err := run(); err != nil {
		t.Errorf("clean cone refused: %v", err)
	}
	if run(core.Key(slot*slotStride+2)) == nil {
		t.Error("a leaf computed twice passed")
	}
	if run(core.Key(slot*slotStride+40)) == nil {
		t.Error("a leaf outside the cone's width passed")
	}
	if err := run(); err != nil {
		t.Errorf("verify did not clear the slot after a failure: %v", err)
	}
	s.want[slot*slotStride+5]++
	if run() == nil {
		t.Error("a wrong leaf result passed")
	}
}

func TestStreamCorruptionIsCountedNotFatal(t *testing.T) {
	var res result
	st, err := setupStream(testConfig(), &res)
	if err != nil {
		t.Fatal(err)
	}
	defer st.eng.Close()
	if res.failed != 0 || res.attempted != streamCallers*warmupGraphs {
		t.Fatalf("set-up: %d of %d failed", res.failed, res.attempted)
	}
	// Every cone reads leaf 0 of its slot: spoil its expected value in
	// every slot, so every graph fails its check.
	for slot := range streamSlots {
		st.spec.want[slot*slotStride]++
	}
	res = result{}
	if err := st.slice(&res, time.Hour, 50, false); err != nil {
		t.Fatal(err)
	}
	if res.attempted != 2*50 || res.failed != res.attempted {
		t.Errorf("%d of %d failed, want all %d", res.failed, res.attempted, 2*50)
	}
}
