package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nabbitc/internal/core"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	// Child spans, recorded by the spec wrappers on worker goroutines.
	kindCompute spanKind = iota // bench: Spec.Compute
	kindPreds                   // bench: Spec.Predecessors
	// Root spans, recorded by the harness on its own goroutines.
	kindExecute     // core: Engine.Execute
	kindSubmit      // core: Engine.Submit
	kindWait        // core: Ticket.Wait
	kindSerial      // bench: RunSerial (or the serial loop of submit-stream)
	kindGetOrCreate // core: NodeStore.GetOrCreate over every key of a fresh store
	kindPushPop     // deque: owner push+pop pairs
	kindSteal       // deque: one thief draining a deque
	kindOMPStatic   // omp: ForSweeps, static schedule
	kindOMPGuided   // omp: ForSweeps, guided schedule
	kindGenerate    // graphs: Generate
	numKinds
)

var kindNames = [numKinds]string{
	"bench.Compute", "bench.Predecessors",
	"core.Execute", "core.Submit", "core.Wait", "bench.RunSerial",
	"core.NodeStore.GetOrCreate", "deque.PushPop", "deque.Steal",
	"omp.ForSweeps.static", "omp.ForSweeps.guided", "graphs.Generate",
}

// span is one recorded interval, in nanoseconds since the recorder's
// base. n carries a size: the predecessor count a Predecessors call
// returned, or the item count of a root span.
type span struct {
	kind       spanKind
	n          int32
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// childShards and colorShards spread the child spans and the Color
// tallies over padded cells by key, so workers recording at the same
// time rarely contend on one cache line.
const (
	childShards = 16
	colorShards = 64
)

// colorSample: one Color call in colorSample is timed, and its time
// counts colorSample times. A Color call costs a few nanoseconds, well
// under the two clock reads that would time it.
const colorSample = 64

type colorCell struct {
	calls, ns atomic.Int64
	_         [48]byte
}

// childShard is one key shard's part of the child buffer: spans[:next].
type childShard struct {
	spans []span
	next  atomic.Int64
	_     [32]byte
}

// recorder keeps spans in memory for one traced run. Child spans (two per
// node) go to preallocated per-shard buffers through an atomic index and
// are drained after every execution or slice; Color runs once or twice
// per edge, so its calls are summed per shard instead of kept as spans.
// Root spans are appended by the harness goroutine only. The spans are
// written out when the run ends.
type recorder struct {
	base  time.Time
	child [childShards]childShard
	color [colorShards]colorCell
	roots []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// reserve sizes the child buffer for capacity spans (recorded keys spread
// evenly over the shards; twice that is reserved).
func (r *recorder) reserve(capacity int) {
	per := 2*capacity/childShards + 16
	for i := range r.child {
		r.child[i].spans = make([]span, per)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// addChild records a child span of key k; it is safe for concurrent use.
func (r *recorder) addChild(k core.Key, kind spanKind, start, end int64, n int) {
	sh := &r.child[uint64(k)%childShards]
	if i := sh.next.Add(1) - 1; i < int64(len(sh.spans)) {
		sh.spans[i] = span{kind: kind, n: int32(n), start: start, end: end}
	}
}

// colorCell returns the Color tally of key k's shard.
func (r *recorder) colorCell(k core.Key) *colorCell { return &r.color[uint64(k)%colorShards] }

// addRoot records a root span (harness goroutine only).
func (r *recorder) addRoot(kind spanKind, start, end int64, n int) span {
	s := span{kind: kind, n: int32(n), start: start, end: end}
	r.roots = append(r.roots, s)
	return s
}

// nearlyFull reports whether a child shard is three quarters used, the
// point at which submit-stream ends a traced slice early.
func (r *recorder) nearlyFull() bool {
	for i := range r.child {
		if sh := &r.child[i]; sh.next.Load() >= int64(len(sh.spans))*3/4 {
			return true
		}
	}
	return false
}

// childTotals sums the children drained from one traced interval.
type childTotals struct {
	computeCalls, computeNS int64
	predsCalls, predsNS     int64
	edges                   int64 // Σ predecessor counts returned
	colorCalls, colorNS     int64
}

// drain folds the children recorded since the last drain into totals,
// computes the worker-time of root left to the core layer, and clears the
// buffer. The engine must be quiet: no worker may be inside a callback.
// last, when non-nil, receives a copy of the drained children.
func (r *recorder) drain(root span, workers int, last *[]span) (childTotals, int64, error) {
	var t childTotals
	var err error
	self := int64(workers) * root.dur()
	if last != nil {
		*last = (*last)[:0]
	}
	for i := range r.child {
		sh := &r.child[i]
		n := sh.next.Swap(0)
		if n > int64(len(sh.spans)) && err == nil {
			err = fmt.Errorf("trace: %d child spans overflowed a shard of %d", n, len(sh.spans))
		}
		kids := sh.spans[:min(n, int64(len(sh.spans)))]
		for _, s := range kids {
			switch s.kind {
			case kindCompute:
				t.computeCalls++
				t.computeNS += s.dur()
			case kindPreds:
				t.predsCalls++
				t.predsNS += s.dur()
				t.edges += int64(s.n)
			}
		}
		self -= covered(root, kids)
		if last != nil {
			*last = append(*last, kids...)
		}
	}
	for i := range r.color {
		t.colorCalls += r.color[i].calls.Swap(0)
		t.colorNS += r.color[i].ns.Swap(0)
	}
	if err != nil {
		return childTotals{}, 0, err
	}
	return t, self - t.colorNS, nil
}

// selfTime returns the worker-time of root not covered by its children:
// workers × root's duration − Σ (each child ∩ root). Children on
// different workers overlap one another in wall time; each counts in
// full, because each occupied its own worker for its duration.
func selfTime(root span, workers int, children []span) int64 {
	return int64(workers)*root.dur() - covered(root, children)
}

// covered returns Σ (each child ∩ root), in worker-time.
func covered(root span, children []span) int64 {
	var t int64
	for _, c := range children {
		if lo, hi := max(c.start, root.start), min(c.end, root.end); hi > lo {
			t += hi - lo
		}
	}
	return t
}

// spanJSON is the written form of a span.
type spanJSON struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the root span, -1 for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int32  `json:"n,omitempty"`
}

// write stores every root span and the children of the last traced
// execution (parented to lastRoot) as JSON lines in path.
func (r *recorder) write(path string, lastRoot int, lastKids []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(s span, parent int) error {
		return enc.Encode(spanJSON{kindNames[s.kind], parent, s.start, s.end, s.n})
	}
	for _, s := range r.roots {
		if err := emit(s, -1); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range lastKids {
		if err := emit(s, lastRoot); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
