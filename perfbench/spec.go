package main

import (
	"fmt"

	"nabbitc/internal/core"
)

// The backends every workload must run on: core.NabbitCPolicy over a
// spec with a declared key bound resolves to the dense node arena and the
// mutex deque. A run on anything else measures a different program, so
// the harness stops without a result.
const (
	wantNodeBackend  = "dense"
	wantDequeBackend = "mutex"
)

// checkBackends reports a run whose stats name other backends than the
// benchmark is defined on. The error is fatal, not a failed operation.
func checkBackends(st *core.Stats) error {
	if st.NodeBackend != wantNodeBackend || st.DequeBackend != wantDequeBackend {
		return fmt.Errorf("engine ran on node backend %q and deque %q, want %q and %q",
			st.NodeBackend, st.DequeBackend, wantNodeBackend, wantDequeBackend)
	}
	return nil
}

// wrapSpec is the engine's view of a batch workload. It forwards every
// callback to cur, the spec of the current instance, which the harness
// swaps between executions (instances are single-use), and, when rec is
// set, records a span around each callback. It forwards KeyBound, so the
// engine still picks the dense arena, and FootprintOf, so it is the same
// CostSpec as the one it wraps.
type wrapSpec struct {
	cur core.CostSpec
	rec *recorder
}

func (w *wrapSpec) Predecessors(k core.Key) []core.Key {
	if w.rec == nil {
		return w.cur.Predecessors(k)
	}
	t0 := w.rec.now()
	ps := w.cur.Predecessors(k)
	w.rec.addChild(k, kindPreds, t0, w.rec.now(), len(ps))
	return ps
}

func (w *wrapSpec) Color(k core.Key) int {
	if w.rec == nil {
		return w.cur.Color(k)
	}
	cell := w.rec.colorCell(k)
	if cell.calls.Add(1)%colorSample != 0 {
		return w.cur.Color(k)
	}
	t0 := w.rec.now()
	c := w.cur.Color(k)
	cell.ns.Add((w.rec.now() - t0) * colorSample)
	return c
}

func (w *wrapSpec) Compute(k core.Key) {
	if w.rec == nil {
		w.cur.Compute(k)
		return
	}
	t0 := w.rec.now()
	w.cur.Compute(k)
	w.rec.addChild(k, kindCompute, t0, w.rec.now(), 0)
}

func (w *wrapSpec) FootprintOf(k core.Key) core.Footprint { return w.cur.FootprintOf(k) }

func (w *wrapSpec) KeyBound() int { return core.KeyBoundOf(w.cur) }
