package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"slices"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run (--trace 0), reported on
// every workload. A "graph" is one Execute of the whole task graph on the
// batch workloads and one Submit/Wait round trip on submit-stream. The
// absolute times, which move with the host, go to the stamp line.
var endToEnd = []metricDef{
	{"speedup_vs_serial", "x"}, // median of serial ÷ engine time, each taken back to back
	{"setup_s", "s"},           // median of setupRepeats full set-ups
	{"mem_peak_mb", "MB"},      // largest heap live after forced collections
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = []metricDef{
	{"core.self_ns_per_node", "ns"},
	{"core.busy_ns_per_node", "ns"},
	{"core.overhead_ns_per_edge", "ns"},
	{"core.discover_ns_per_node", "ns"},
	{"core.idle_frac", "frac"},
	{"core.steal_attempts_per_node", "count"},
	{"core.steal_hit_ratio", "frac"},
	{"core.time_to_first_work_us", "us"},
	{"core.parks_per_exec", "count"},
	{"core.wakes_per_exec", "count"},
	{"core.spin_rounds_per_exec", "count"},
	{"core.submit_us_p50", "us"},
	{"core.submit_us_p99", "us"},
	{"core.wait_us_p50", "us"},
	{"core.deque_grows", "count"},
	{"core.remote_pct", "%"},
	{"bench.compute_ns_per_node", "ns"},
	{"bench.serial_ms_p50", "ms"},
	{"bench.preds_ns_per_call", "ns"},
	{"bench.compute_calls_per_node", "count"},
	{"bench.preds_calls_per_node", "count"},
	{"bench.color_calls_per_node", "count"},
	{"bench.edges_per_node", "count"},
	{"deque.push_pop_ns", "ns"},
	{"deque.steal_ns_per_item", "ns"},
	{"omp.static_ms_p50", "ms"},
	{"omp.guided_ms_p50", "ms"},
	{"graphs.generate_s", "s"},
	{"runtime.allocs_per_exec", "count"},
	{"runtime.bytes_per_exec", "B"},
	{"runtime.gc_cycles_per_exec", "count"},
	{"trace.overhead_frac", "frac"},
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs reports a metric whose name or unit breaks the result
// grammar, or a name used twice.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !metricNameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.name)
		}
		if !metricUnitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty: the smallest sample with
// at least p% of the samples at or below it. p50 is the median.
func percentile(sorted []float64, p int) float64 {
	rank := (p*len(sorted) + 99) / 100
	return sorted[max(rank, 1)-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile. A tail percentile is reported only when at least ten do.
func beyond(n, p int) int { return n - (p*n+99)/100 }

// pct sorts a copy of xs and returns its nearest-rank p-th percentile, or
// 0 for no samples.
func pct(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, p)
}

// ratio returns num/den, or 0 when the base den is 0, so that a count
// with an empty base (no steal attempts, say) reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result is the benchmark's verdict: every checked operation counts in
// attempted, every engine error or wrong output in failed.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
}

// check records one checked operation; a non-nil err is a failure and is
// reported on standard error, never aborting the run.
func (r *result) check(log io.Writer, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(log, "perfbench: failed: %v\n", err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encode renders the result line with exactly the metrics in defs.
func (r *result) encode(defs []metricDef) ([]byte, error) {
	if len(r.metrics) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(r.metrics), len(defs))
	}
	line := resultLine{
		Correct:   r.attempted > 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(line)
}
