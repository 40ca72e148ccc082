// Command perfbench is the repository's benchmark: it runs the real
// NabbitC engine on one workload for a fixed time, checks every output,
// and prints its metrics as one JSON line. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload heat-fine --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints the per-layer metrics. The last line of standard
// output is the result; the line before it records the seed and the host.
// README.md maps each per-layer metric to the end-to-end metric it should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	p        int // engine workers and OpenMP team size: runtime.NumCPU()
	spansDir string
	log      io.Writer
	heap     *heapPeak
	stamp    map[string]any
}

// note adds a key to the stamp line.
func (c config) note(k string, v any) { c.stamp[k] = v }

func (c config) spansPath() string {
	return filepath.Join(c.spansDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
}

var workloads = []string{"heat-fine", "pagerank-dense", "submit-stream"}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: heat-fine, pagerank-dense or submit-stream")
	seed := fs.Uint64("seed", 1, "workload seed: crawl, victim selection and cone mix")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
	rev := fs.String("rev", "unknown", "source revision to record")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkDefs(defs); err != nil {
			return err
		}
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		p:        runtime.NumCPU(),
		spansDir: *spansDir,
		log:      stderr,
		heap:     &heapPeak{},
		stamp: map[string]any{
			"workload":   *workload,
			"seed":       *seed,
			"trace":      *trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"rev":        *rev,
			"backends":   wantNodeBackend + "/" + wantDequeBackend,
		},
	}
	res := result{metrics: map[string]float64{}}
	var err error
	switch cfg.workload {
	case heatFine.name:
		err = runBatch(heatFine, cfg, &res)
	case pagerankDense.name:
		err = runBatch(pagerankDense, cfg, &res)
	case "submit-stream":
		err = runStream(cfg, &res)
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line, err := res.encode(defs)
	if err != nil {
		return err
	}
	cfg.note("failed_frac", ratio(float64(res.failed), float64(res.attempted)))
	stamp, err := json.Marshal(map[string]any{"perfbench": cfg.stamp})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", stamp, line)
	return nil
}
