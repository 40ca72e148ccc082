package sim

import (
	"fmt"
	"slices"
	"time"

	"nabbitc/internal/colorset"
	"nabbitc/internal/core"
	"nabbitc/internal/deque"
	"nabbitc/internal/sched"
	"nabbitc/internal/xrand"
)

// node is the simulator's task state. The simulator is single-threaded, so
// no atomics are needed; the lifecycle (on-demand creation, join counter,
// successor lists) mirrors core.Node exactly — created mirrors the
// absent → ready transition of the real engine's lifecycle word (the
// dense-arena backend preallocates slots that no worker has named yet).
type node struct {
	key       core.Key
	color     int
	home      int
	preds     []core.Key
	predHomes []int
	fp        core.Footprint
	join      int
	succs     []*node
	computed  bool
	created   bool
}

// nodeColor names a node's color for grouping.
func nodeColor(n *node) int { return n.color }

type entry struct {
	it     sched.Item[core.Key, *node]
	colors colorset.Set
}

// wdeque is a single-threaded deque: owner pushes/pops at the tail,
// thieves take from the head.
type wdeque struct {
	buf  []entry
	head int
	// block mirrors the block substrate's steal granularity (see
	// stealHalf): absStolen counts head-side removals over the deque's
	// lifetime, fixing the 32-entry block grid the way the real block
	// chain's slot positions do.
	block     bool
	absStolen int64
}

func (d *wdeque) len() int { return len(d.buf) - d.head }

func (d *wdeque) pushBottom(e entry) { d.buf = append(d.buf, e) }

func (d *wdeque) popBottom() (entry, bool) {
	if d.len() == 0 {
		return entry{}, false
	}
	e := d.buf[len(d.buf)-1]
	d.buf[len(d.buf)-1] = entry{}
	d.buf = d.buf[:len(d.buf)-1]
	return e, true
}

func (d *wdeque) top() (entry, bool) {
	if d.len() == 0 {
		return entry{}, false
	}
	return d.buf[d.head], true
}

func (d *wdeque) stealTop() (entry, bool) {
	if d.len() == 0 {
		return entry{}, false
	}
	e := d.buf[d.head]
	d.buf[d.head] = entry{}
	d.head++
	d.absStolen++
	if d.head > 64 && d.head*2 > len(d.buf) {
		// Compact to keep memory bounded.
		d.buf = append(d.buf[:0], d.buf[d.head:]...)
		d.head = 0
	}
	return e, true
}

// stealHalf removes a batch of the oldest items, oldest first — the
// virtual-time mirror of the real deques' batched steal. The simulator is
// single-threaded, so unlike Chase–Lev this batch really is atomic.
//
// Per-item substrates take min(ceil(n/2), max). With block set, the batch
// mirrors the block deque's sealed-block claim instead: everything left
// in the oldest 32-entry block (which may exceed ceil(n/2)), falling back
// to half-batching only when the remaining items all sit in the newest,
// unsealed block — the same legal victim-order deviation the real
// substrate documents.
func (d *wdeque) stealHalf(max int) []entry {
	n := d.len()
	if n == 0 {
		return nil
	}
	k := (n + 1) / 2
	if d.block {
		if remain := deque.BlockSize - int(d.absStolen%deque.BlockSize); n > remain {
			k = remain
		}
	}
	if max > 0 && k > max {
		k = max
	}
	out := make([]entry, k)
	for i := range out {
		out[i], _ = d.stealTop()
	}
	return out
}

type eventKind uint8

const (
	evComplete eventKind = iota
	evSteal
)

type event struct {
	at   int64
	seq  int64 // FIFO tie-break for determinism
	wid  int
	kind eventKind
}

// eventHeap is a binary min-heap on (at, seq).
type eventHeap struct {
	evs     []event
	nextSeq int64
}

func (h *eventHeap) push(at int64, wid int, kind eventKind) {
	h.evs = append(h.evs, event{at: at, seq: h.nextSeq, wid: wid, kind: kind})
	h.nextSeq++
	i := len(h.evs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.evs[i], h.evs[p] = h.evs[p], h.evs[i]
		i = p
	}
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) pop() (event, bool) {
	if len(h.evs) == 0 {
		return event{}, false
	}
	top := h.evs[0]
	last := len(h.evs) - 1
	h.evs[0] = h.evs[last]
	h.evs = h.evs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.evs) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.evs) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.evs[i], h.evs[smallest] = h.evs[smallest], h.evs[i]
		i = smallest
	}
	return top, true
}

type worker struct {
	id    int
	color int
	dq    wdeque
	rng   *xrand.Rand
	stats WorkerStats
	// plan is the worker's steal walk, shared with core (see sched.Plan);
	// stealPhase is the worker's position in it.
	plan sched.Plan

	firstStealPending bool
	stealPhase        int
	running           *node
	completeAt        int64
	startedWork       bool
}

type engine struct {
	opts    Options
	spec    core.CostSpec
	nodes   map[core.Key]*node
	workers []*worker
	// arena/arenaIdx are the dense node-table mirror (non-nil when the
	// run uses the dense backend): a flat slot array laid out home-major
	// by the same core.HomeMajorIndex the real engine uses, with nodes
	// replaced by preallocated slots and map presence by node.created.
	arena    []node
	arenaIdx []int32
	sinkKey  core.Key
	evq      eventHeap
	done     bool
	makespan int64
	created  int
	// grp and ready are reusable grouping scratch and complete()'s ready
	// list (the simulator is single-threaded, so one engine-wide copy of
	// each suffices); GroupNodes always copies out of ready.
	grp   sched.Grouper[core.Key, *node]
	ready []*node
}

// Run executes the task graph on the simulated machine and returns virtual
// timing, steal, and locality statistics. Runs are deterministic: the same
// spec, sink, and options produce identical results.
func Run(spec core.CostSpec, sink core.Key, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &engine{
		opts:    opts,
		spec:    spec,
		sinkKey: sink,
	}
	backend, err := core.ResolveNodeTable(spec, opts.NodeTable)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if backend == core.NodeTableDense {
		bound := core.KeyBoundOf(spec)
		e.arena = make([]node, bound)
		e.arenaIdx = core.HomeMajorIndex(bound, opts.Workers, func(k core.Key) int {
			return core.HomeOf(spec, k)
		})
	} else {
		e.nodes = make(map[core.Key]*node)
	}
	p := opts.Policy
	e.grp = sched.NewGrouper[core.Key, *node](opts.Workers, p.Colored)
	blockDeque := core.ResolveDeque(p) == core.DequeBlock
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			id:                i,
			color:             i,
			dq:                wdeque{block: blockDeque},
			rng:               xrand.NewWorker(p.Seed, i),
			plan:              p.StealPlan(opts.Topology, i),
			firstStealPending: p.Colored && p.ForceFirstColoredSteal && i != 0,
		}
	}

	// Worker 0 seeds the computation with the sink node at t = 0.
	w0 := e.workers[0]
	sinkNode, _ := e.getOrCreate(sink)
	t := e.opts.Cost.NodeOverhead
	w0.stats.BusyTime += e.opts.Cost.NodeOverhead
	if len(sinkNode.preds) == 0 {
		e.startExec(w0, t, sinkNode)
	} else {
		e.push(w0, e.grp.GroupKeys(sinkNode, sinkNode.preds, spec.Color))
		e.acquire(w0, t)
	}
	// All other workers begin hunting for work.
	for _, w := range e.workers[1:] {
		if opts.Workers > 1 {
			e.evq.push(e.opts.Cost.StealAttemptCost, w.id, evSteal)
		}
	}

	var last int64 // latest event time processed, the partial makespan
	for !e.done {
		ev, ok := e.evq.pop()
		if !ok {
			// Dependence deadlock: nothing executing, nothing stealable,
			// no event to make progress. Report the same typed stall
			// diagnostic as the real engine, naming the nodes that were
			// created but never computed (a cycle's members and their
			// downstream) — or, under SkipUnreachable, degrade exactly
			// as core's error-budget path does: return the partial
			// Result together with a *core.PartialError naming the
			// never-computed nodes as skipped.
			pend := e.pendingKeys()
			if e.opts.SkipUnreachable {
				pe := &core.PartialError{SkippedTotal: len(pend)}
				if len(pend) > core.StallPendingMax {
					pend = pend[:core.StallPendingMax]
				}
				pe.Skipped = pend
				return e.result(last), pe
			}
			se := &core.StallError{Sink: sink, PendingTotal: len(pend)}
			if len(pend) > core.StallPendingMax {
				pend = pend[:core.StallPendingMax]
			}
			se.Pending = pend
			return nil, se
		}
		if dl := e.opts.Deadline; dl > 0 && ev.at > dl {
			// The run's virtual-time budget is spent before this event
			// fires: the watchdog mirror. Limit carries the budget's
			// integer value (virtual cycles).
			return nil, &core.TimeoutError{Limit: time.Duration(dl)}
		}
		last = ev.at
		w := e.workers[ev.wid]
		switch ev.kind {
		case evComplete:
			e.complete(w, ev.at)
		case evSteal:
			e.stealAttempt(w, ev.at)
		}
	}
	return e.result(e.makespan), nil
}

// result gathers the per-worker counters into a Result with the given
// makespan (the sink's completion time, or the last processed event
// time for a degraded run).
func (e *engine) result(makespan int64) *Result {
	res := &Result{
		Makespan:     makespan,
		Workers:      make([]WorkerStats, len(e.workers)),
		NodesCreated: e.created,
		Topology:     e.opts.Topology,
	}
	for i, w := range e.workers {
		if !w.startedWork {
			w.stats.TimeToFirstWork = makespan
		}
		res.Workers[i] = w.stats
	}
	return res
}

// pendingKeys lists created-but-never-computed nodes, sorted — the
// drained-queue stall diagnostic, mirroring the real engine's
// nodeTable.pendingKeys.
func (e *engine) pendingKeys() []core.Key {
	var keys []core.Key
	if e.arena != nil {
		for i := range e.arena {
			n := &e.arena[i]
			if n.created && !n.computed {
				keys = append(keys, n.key)
			}
		}
	} else {
		// Iteration order doesn't reach the result: keys are sorted below,
		// and this runs only on the post-drain failure path (no scheduling
		// decision depends on it).
		//nabbit:nondeterministic-ok
		for k, n := range e.nodes {
			if !n.computed {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

func (e *engine) getOrCreate(k core.Key) (*node, bool) {
	var n *node
	if e.arena != nil {
		if k < 0 || int64(k) >= int64(len(e.arenaIdx)) {
			panic(fmt.Sprintf("sim: key %d outside the spec's declared bound %d", k, len(e.arenaIdx)))
		}
		n = &e.arena[e.arenaIdx[k]]
		if n.created {
			return n, false
		}
	} else if m, ok := e.nodes[k]; ok {
		return m, false
	} else {
		n = &node{}
		e.nodes[k] = n
	}
	preds := e.spec.Predecessors(k)
	n.key = k
	n.color = e.spec.Color(k)
	n.home = core.HomeOf(e.spec, k)
	n.preds = preds
	n.fp = e.spec.FootprintOf(k)
	n.join = len(preds)
	n.created = true
	if len(preds) > 0 {
		n.predHomes = make([]int, len(preds))
		for i, p := range preds {
			n.predHomes[i] = core.HomeOf(e.spec, p)
		}
	}
	e.created++
	return n, true
}

// push makes a continuation stealable, advertising its color mask.
func (e *engine) push(w *worker, it sched.Item[core.Key, *node]) {
	w.dq.pushBottom(entry{it: it, colors: it.Colors(len(e.workers))})
}

// runItem interprets a morphing continuation in virtual time with the
// same split steps as core's runItem (see sched.Item.Split): it pushes
// the stealable halves and resolves the leaf, returning the node the
// worker should now execute (nil if the leaf only did bookkeeping) and
// the advanced clock.
func (e *engine) runItem(w *worker, t int64, it sched.Item[core.Key, *node]) (*node, int64) {
	if it.Size() == 0 {
		return nil, t
	}
	grain := 1
	if it.Owner != nil {
		grain = sched.Grain(len(it.Owner.preds), len(e.workers))
	}
	var rest sched.Item[core.Key, *node]
	for it.Split(w.color, e.opts.Policy.Colored, grain, &rest) {
		e.push(w, rest)
	}
	if it.Owner != nil {
		return e.resolveKeys(w, t, it.Owner, it.Single)
	}
	return it.Single.Nodes[0], t
}

// resolveKeys mirrors core's leaf scan, charging creation and edge-check
// overheads: keys whose predecessor exists are settled inline, and at the
// first key whose predecessor it creates, the unresolved rest of the leaf
// is pushed as one item before the worker descends into the new node.
// The descent into a node with predecessors is its grouped item, pushed
// here and popped straight back by acquire — the same order as core's
// direct interpretation, since nothing runs in between.
func (e *engine) resolveKeys(w *worker, t int64, owner *node, leaf sched.Group[core.Key, *node]) (*node, int64) {
	m := e.opts.Cost
	for i, pk := range leaf.Keys {
		pred, created := e.getOrCreate(pk)
		if created {
			t += m.NodeOverhead
			w.stats.BusyTime += m.NodeOverhead
			pred.succs = append(pred.succs, owner)
			if rest := leaf.Keys[i+1:]; len(rest) > 0 {
				e.push(w, sched.Item[core.Key, *node]{
					Owner:  owner,
					Single: sched.Group[core.Key, *node]{Color: leaf.Color, Keys: rest},
				})
			}
			if len(pred.preds) == 0 {
				return pred, t
			}
			e.push(w, e.grp.GroupKeys(pred, pred.preds, e.spec.Color))
			return nil, t
		}
		t += m.EdgeOverhead
		w.stats.BusyTime += m.EdgeOverhead
		if !pred.computed {
			pred.succs = append(pred.succs, owner)
			continue
		}
		owner.join--
		if owner.join < 0 {
			panic("sim: join counter went negative")
		}
		if owner.join == 0 {
			return owner, t
		}
	}
	return nil, t
}

// acquire drains the worker's own deque, interpreting items until one
// yields a node to execute; with an empty deque the worker turns thief.
func (e *engine) acquire(w *worker, t int64) {
	for {
		ent, ok := w.dq.popBottom()
		if !ok {
			if len(e.workers) == 1 {
				// A lone worker with an empty deque and no completion in
				// flight can never make progress (dependence deadlock);
				// schedule nothing and let the drained event queue report
				// the stall as a typed error.
				return
			}
			e.evq.push(t+e.opts.Cost.StealAttemptCost, w.id, evSteal)
			return
		}
		n, t2 := e.runItem(w, t, ent.it)
		t = t2
		if n != nil {
			e.startExec(w, t, n)
			return
		}
	}
}

func (e *engine) nodeCost(w *worker, n *node) int64 {
	return n.fp.Cost(e.opts.Cost, e.opts.Topology, w.color, n.home,
		len(n.preds), func(i int) int { return n.predHomes[i] })
}

func (e *engine) startExec(w *worker, t int64, n *node) {
	if !w.startedWork {
		w.startedWork = true
		w.stats.TimeToFirstWork = t
	}
	cost := e.nodeCost(w, n)
	w.running = n
	w.completeAt = t + cost
	w.stats.BusyTime += cost
	e.evq.push(t+cost, w.id, evComplete)
}

func (e *engine) complete(w *worker, t int64) {
	n := w.running
	w.running = nil
	topo := e.opts.Topology
	w.stats.NodesExecuted++
	if n.color == w.color {
		w.stats.OwnColorNodes++
	}
	w.stats.Accesses.Count(topo, w.color, n.home)
	for _, ph := range n.predHomes {
		w.stats.Accesses.Count(topo, w.color, ph)
	}

	if e.opts.OnComplete != nil {
		e.opts.OnComplete(t, w.id, n.key)
	}

	n.computed = true
	succs := n.succs
	n.succs = nil
	ready := e.ready[:0]
	for _, s := range succs {
		s.join--
		if s.join < 0 {
			panic("sim: join counter went negative in notify")
		}
		if s.join == 0 {
			ready = append(ready, s)
		}
	}
	e.ready = ready
	notifyOverhead := e.opts.Cost.EdgeOverhead * int64(len(succs))
	t += notifyOverhead
	w.stats.BusyTime += notifyOverhead

	if n.key == e.sinkKey {
		e.done = true
		e.makespan = t
		return
	}
	if len(ready) == 1 {
		// The push of a one-node item would be popped back by acquire and
		// interpreted to exactly this node; skip the round trip (as the
		// real engine does). The event loop is single-threaded, so no
		// steal could have intervened between that push and pop.
		e.startExec(w, t, ready[0])
		return
	}
	if len(ready) > 0 {
		e.push(w, e.grp.GroupNodes(ready, nodeColor))
	}
	e.acquire(w, t)
}

// anyStealable reports whether any deque currently holds an item.
func (e *engine) anyStealable() bool {
	for _, w := range e.workers {
		if w.dq.len() > 0 {
			return true
		}
	}
	return false
}

// earliestCompletion returns the soonest pending task completion, or
// (0, false) when no worker is executing.
func (e *engine) earliestCompletion() (int64, bool) {
	best := int64(0)
	found := false
	for _, w := range e.workers {
		if w.running != nil && (!found || w.completeAt < best) {
			best = w.completeAt
			found = true
		}
	}
	return best, found
}

// stealSucceeded charges the steal-success cost (once, even for a batch —
// that single charge is the amortization batching buys), adopts every
// batch item after the first into the thief's own deque, and continues the
// thief on the first stolen item.
func (e *engine) stealSucceeded(w *worker, t int64, ents []entry) {
	m := e.opts.Cost
	t += m.StealSuccessCost
	w.stats.BusyTime += m.StealSuccessCost
	for _, ex := range ents[1:] {
		w.dq.pushBottom(ex)
	}
	n, t2 := e.runItem(w, t, ents[0].it)
	if n != nil {
		e.startExec(w, t2, n)
	} else {
		e.acquire(w, t2)
	}
}

// scheduleNextProbe schedules the worker's next steal event after a failed
// probe. If nothing is stealable anywhere, fast-forward to the next
// completion instead of grinding out empty probes (pure
// simulation-efficiency optimization: the probes it skips could not have
// succeeded).
func (e *engine) scheduleNextProbe(w *worker, t int64) {
	m := e.opts.Cost
	next := t + m.StealAttemptCost
	if !e.anyStealable() {
		c, busy := e.earliestCompletion()
		if !busy {
			// Every worker idle, every deque empty, nothing executing:
			// a dependence deadlock. Stop scheduling probes so the event
			// queue drains and Run reports the typed stall error.
			return
		}
		if c+1 > next {
			next = c + 1
		}
	}
	e.evq.push(next, w.id, evSteal)
}

// stealAttempt performs one probe of the worker's steal walk: the
// enforced first colored steal while it is pending, otherwise the plan's
// tier at the worker's phase. Consecutive failed probes walk the same
// victim order as core's hunt; a success, or the failed global-random
// probe that ends a round, restarts the walk from the top. The attempt
// cost was charged when the event was scheduled.
func (e *engine) stealAttempt(w *worker, t int64) {
	if e.done {
		return
	}
	pl := &w.plan
	tier := pl.At(w.stealPhase)
	if w.firstStealPending {
		tier = core.TierGlobalColored
		w.stats.FirstStealChecks++
	}
	v := pl.Victim(w.rng, tier)
	batch := pl.Batch(v)
	if w.firstStealPending {
		batch = 0 // the enforced first steal takes one item
	}
	if ents := e.probe(w, tier, e.workers[v], batch); ents != nil {
		if w.firstStealPending {
			w.firstStealPending = false
			w.stats.FirstStealForcedOK = true
		}
		w.stealPhase = 0
		e.stealSucceeded(w, t, ents)
		return
	}
	if !w.firstStealPending {
		w.stealPhase = (w.stealPhase + 1) % pl.Len()
	} else if w.stats.FirstStealChecks >= pl.GiveUp() {
		// Give up the enforcement (bounded, see DESIGN.md §4).
		w.firstStealPending = false
	}
	e.scheduleNextProbe(w, t)
}

// probe makes one steal attempt of tier t on victim v — a batched steal
// of up to batch items when batch > 0 — accounts it, and returns the
// items taken, oldest first, or nil.
func (e *engine) probe(w *worker, t core.StealTier, v *worker, batch int) []entry {
	colored := t.Colored()
	w.stats.StealAttempts++
	w.stats.TierAttempts[t]++
	if colored {
		w.stats.ColoredAttempts++
	}
	top, has := v.dq.top()
	if !has {
		return nil
	}
	if !w.plan.Admits(t, top.colors) {
		w.stats.ColoredMisses++
		return nil
	}
	var ents []entry
	if batch > 0 {
		ents = v.dq.stealHalf(batch)
		w.stats.BatchOps++
		w.stats.BatchItems += int64(len(ents))
	} else {
		ent, _ := v.dq.stealTop()
		ents = []entry{ent}
	}
	w.stats.StealsOK++
	w.stats.TierSteals[t]++
	if colored {
		w.stats.ColoredStealsOK++
	}
	return ents
}
