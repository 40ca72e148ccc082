package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nabbitc/internal/deque"
	"nabbitc/internal/sched"
	"nabbitc/internal/xrand"
)

// Engine is a persistent, multi-tenant instance of the real parallel
// scheduler: P worker goroutines, each with a work-stealing deque of
// morphing-continuation items, plus a pool of node-table instances. The
// engine is built once (NewEngine) and executes any number of task
// graphs, reusing the worker pool, the deques, and the node tables
// across runs — the iterative-workload shape (PageRank power iterations,
// stencil time stepping) where per-run construction cost would otherwise
// dominate, and the service shape where many small graphs are in flight
// at once. Idle workers park on a per-worker notify slot instead of
// spinning (see doc.go's parking design note).
//
// Graphs enter through two front doors:
//
//   - Submit/Wait: admit a graph (subject to Options.MaxInflight and
//     Options.Admission) and return a Ticket immediately; any number of
//     graphs may be in flight concurrently, from any goroutines.
//   - Execute: run one graph with exclusive occupancy of the pool and
//     full per-worker statistics. Concurrent Execute calls are safe and
//     simply serialize (they also serialize against Close).
//
// Close releases the worker goroutines after draining in-flight graphs —
// every NewEngine must be paired with a Close.
type Engine struct {
	spec Spec
	// fspec/ospec are the spec's fallible and optional faces, resolved
	// once at construction (nil when the spec does not implement them):
	// with fspec set the workers call ComputeErr instead of Compute and
	// retry failures under opts.Retry; ospec marks nodes whose permanent
	// failure degrades the graph instead of failing it.
	fspec   FallibleSpec
	ospec   OptionalSpec
	opts    Options
	dense   bool   // resolved node-table backend
	backend string // its Stats name
	// layout is the dense arena's key layout (per-key colors, homes and
	// slots), built once and shared by every pooled arena; zero on the
	// sharded backend.
	layout keyLayout
	// dequeBackend is the resolved worker-deque substrate (see
	// ResolveDeque); workers are built on it once and reuse it forever.
	dequeBackend DequeBackend
	workers      []*worker

	// slots is the admission semaphore: one token per in-flight graph,
	// capacity Options.MaxInflight. pending is the FIFO hand-off of
	// admitted-but-unseeded graphs to the workers; every pending graph
	// holds a slot, so a send during admission can never block.
	slots   chan struct{}
	pending chan *graphRun
	// closedCh unblocks Submit calls parked in blocking admission when
	// the engine closes.
	closedCh chan struct{}
	// nextID stamps each admitted graph with a unique id.
	nextID atomic.Uint64

	// stateMu guards the run registry and table pool, and makes
	// admission (register + pending send) atomic with respect to the
	// stall sweep and Execute's quiescence checks.
	stateMu sync.Mutex
	runs    []*graphRun // in-flight graphs, unordered (guarded by stateMu)
	tables  []nodeTable // idle node-table instances (guarded by stateMu)
	// deadTables quarantines the node tables of failed runs until the
	// pool is provably quiet (guarded by stateMu; see
	// reclaimTablesLocked); quarantined mirrors its length atomically so
	// the park-site reclaim trigger can read it without stateMu.
	deadTables  []nodeTable
	quarantined atomic.Int32
	// active mirrors len(runs) atomically so the stall sweep and
	// quiescence checks can read it without stateMu.
	active atomic.Int32

	// parked counts currently-parked workers. A wake decrements it on
	// the waker's side (after winning the park CAS), so parked == P
	// implies no wake token is in flight — the quiet state Execute's
	// stats reset/gather and the stall sweep rely on.
	parked atomic.Int32
	// closing gates Submit as soon as Close begins; closeFlag tells
	// workers to exit once Close has drained the in-flight graphs.
	closing   atomic.Bool
	closeFlag atomic.Bool

	// retryMu guards retryQ, the due-retry list: nodes whose failed
	// ComputeErr attempt has served its backoff and must be re-executed.
	// retryDue mirrors len(retryQ) and retryOut counts backoff timers
	// that have not fired yet; both are atomics so the park/bail/stall
	// conditions can consult them without the lock. All of this is
	// failure-path state — a run with no failed attempts never touches
	// it.
	retryMu  sync.Mutex
	retryQ   []retryEntry
	retryDue atomic.Int32
	retryOut atomic.Int32

	// watchdogOn gates the per-node execution publication (set when
	// NodeTimeout or RunDeadline is positive); monStop/monWG manage the
	// monitor goroutine, and monRuns is its private scratch for run
	// snapshots.
	watchdogOn bool
	monStop    chan struct{}
	monWG      sync.WaitGroup
	monRuns    []*graphRun

	mu     sync.Mutex // serializes Execute and Close
	closed bool       // guarded by mu

	// startWG releases NewEngine once every worker has announced its
	// initial park (so the first wake tokens cannot be lost); exitWG
	// tracks worker goroutine exit for Close.
	startWG sync.WaitGroup
	exitWG  sync.WaitGroup
}

// ResolveNodeTable resolves the requested backend against the spec's
// declared bound: NodeTableAuto picks dense for bounds in
// (0, DenseAutoMaxKeys], and forcing dense without a bound is an error.
// The simulator resolves through this same function, so the two machines
// can never pick different backends for the same spec (the same reason
// HomeMajorIndex is shared).
func ResolveNodeTable(spec Spec, backend NodeTableBackend) (NodeTableBackend, error) {
	bound := KeyBoundOf(spec)
	switch backend {
	case NodeTableSharded:
		return NodeTableSharded, nil
	case NodeTableDense:
		if bound <= 0 {
			return 0, fmt.Errorf("core: NodeTableDense requires a spec with a positive key bound (got %d)", bound)
		}
		return NodeTableDense, nil
	case NodeTableAuto:
		if bound > 0 && bound <= DenseAutoMaxKeys {
			return NodeTableDense, nil
		}
		return NodeTableSharded, nil
	default:
		return 0, fmt.Errorf("core: unknown node-table backend %v", backend)
	}
}

// dequeCapacity sizes a worker's initial deque from the spec's key bound
// when one is declared: the deepest a deque gets tracks the worker's
// share of the graph's frontier, so bound/workers (clamped to the old
// default below and a growth-irrelevant ceiling above) preallocates past
// any growth churn on the first run. Unbounded specs keep the historical
// default.
func dequeCapacity(bound, workers int) int {
	const (
		defaultCap = 64
		maxCap     = 8192
	)
	if bound <= 0 {
		return defaultCap
	}
	c := bound/workers + 1
	if c < defaultCap {
		return defaultCap
	}
	if c > maxCap {
		return maxCap
	}
	return c
}

// spinBeforePark is the bounded-spin budget: consecutive unsuccessful
// full probe sweeps before an idle worker gives up spinning and parks on
// its notify slot. Large enough that momentary troughs in stealable work
// stay in the cheap spin regime, small enough that a genuinely idle
// worker burns microseconds — not wall-clock — before sleeping.
const spinBeforePark = 64

// seedStride bounds how many consecutive local items a worker runs
// before polling the pending queue: with every worker busy on admitted
// graphs, a newly submitted graph still gets seeded within seedStride
// item executions — the round-robin fairness bound across submissions.
const seedStride = 64

type worker struct {
	id    int // == color
	color int
	e     *Engine
	dq    deque.Queue[item]
	rng   *xrand.Rand
	stats WorkerStats

	// plan is this worker's steal walk (victim ranges, tier budgets,
	// batching), fitted to its socket once at construction.
	plan sched.Plan

	// grp and ready are owner-only scratch reused across runs so the
	// spawn/notify hot paths allocate only what escapes into deque items.
	grp   sched.Grouper[Key, *Node]
	ready []*Node

	// idleSince is the lazily started idle clock: zero until a steal
	// probe fails, so a findWork call whose first probe succeeds never
	// reads the clock.
	idleSince time.Time

	firstStealPending bool
	startedWork       bool

	// spins counts consecutive unsuccessful probe sweeps since the last
	// acquired work or park; at spinBeforePark the worker parks.
	spins int
	// streak counts consecutive locally popped items since the last
	// pending-queue poll; at seedStride the worker polls (fairness).
	streak int
	// curKey names the node this worker is currently processing — a
	// plain owner-written field kept fresh so the rescue boundary can
	// attribute a recovered panic to the node whose spec callback blew
	// up (see rescue).
	curKey Key
	// lastGrows snapshots the deque's cumulative growth count when
	// Execute resets this worker, so per-run DequeGrows is a delta.
	// Snapshotting at run start (not run end) means a failed run can
	// never leak its growths into the next run's delta.
	lastGrows int64

	// pubSeq/pubRun/pubNode/pubStart publish what this worker is
	// executing to the hang watchdog through a seqlock: pubSeq is odd
	// while an update is in flight, so the monitor detects and retries
	// torn reads without ever making the worker wait (see
	// publishExec/sampleExec in retry.go). Written only when the engine's
	// watchdog is armed. The node is published as a pointer, not a key,
	// so the monitor never has to look into a node table it cannot prove
	// is still owned by the run.
	pubSeq   atomic.Uint32
	pubRun   atomic.Pointer[graphRun]
	pubNode  atomic.Pointer[Node]
	pubStart atomic.Int64

	// parkState (0 running, 1 parked) plus the one-token parkCh form the
	// notify slot. A waker that CASes parkState 1→0 owns the wake and
	// sends exactly one token; the parked worker consumes exactly one
	// token per announced park, so tokens can never accumulate.
	parkState atomic.Int32
	parkCh    chan struct{}
}

// NewEngine builds a persistent engine for the spec: the worker pool, the
// per-worker deques, and the first node-table instance, all reused by
// every subsequent Execute/Submit. The workers are started immediately
// and park until the first graph arrives. Callers must Close the engine
// to release them.
func NewEngine(spec Spec, opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	backend, err := ResolveNodeTable(spec, opts.NodeTable)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		spec:     spec,
		opts:     opts,
		dense:    backend == NodeTableDense,
		backend:  backend.String(),
		slots:    make(chan struct{}, opts.MaxInflight),
		pending:  make(chan *graphRun, opts.MaxInflight),
		closedCh: make(chan struct{}),
	}
	if e.dense {
		e.layout = newKeyLayout(spec, KeyBoundOf(spec), opts.Workers)
	}
	e.fspec, _ = spec.(FallibleSpec)
	e.ospec, _ = spec.(OptionalSpec)
	e.watchdogOn = opts.NodeTimeout > 0 || opts.RunDeadline > 0
	// Build the first table eagerly: spec problems surface here rather
	// than on some later Submit, and the single-tenant Execute loop
	// reuses this one instance forever.
	e.tables = []nodeTable{e.buildTable()}
	p := opts.Policy
	dqCap := dequeCapacity(KeyBoundOf(spec), opts.Workers)
	e.dequeBackend = ResolveDeque(p)
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		var dq deque.Queue[item]
		switch e.dequeBackend {
		case DequeChaseLev:
			dq = deque.NewChaseLev[item](dqCap)
		case DequeBlock:
			dq = deque.NewBlock[item](dqCap)
		default:
			dq = deque.NewMutex[item](dqCap)
		}
		dq.SetWake(e.noteWork)
		e.workers[i] = &worker{
			id:     i,
			color:  i,
			e:      e,
			dq:     dq,
			rng:    xrand.NewWorker(p.Seed, i),
			plan:   p.StealPlan(opts.Topology, i),
			grp:    sched.NewGrouper[Key, *Node](opts.Workers, p.Colored),
			parkCh: make(chan struct{}, 1),
		}
	}
	// NewEngine returns only after every worker has announced its initial
	// park: the first admission's wake CAS would fail against a worker
	// that had not yet registered, stranding it asleep.
	e.startWG.Add(opts.Workers)
	e.exitWG.Add(opts.Workers)
	for _, w := range e.workers {
		go w.main()
	}
	e.startWG.Wait()
	if e.watchdogOn {
		e.monStop = make(chan struct{})
		e.monWG.Add(1)
		go e.monitor()
	}
	return e, nil
}

// buildTable constructs a node-table instance for the resolved backend.
func (e *Engine) buildTable() nodeTable {
	if e.dense {
		return newNodeArena(e.spec, &e.layout)
	}
	return newNodeMap(e.spec)
}

// Execute runs the task graph whose completion is marked by the sink task,
// creating nodes on demand from the sink's (transitive) predecessors, and
// returns scheduling statistics for this run — including the per-worker
// counters, which Submit-mode stats cannot attribute. Every task
// reachable from the sink is computed exactly once, and a task computes
// only after all its predecessors. The graph must be acyclic (see
// CheckDAG); a graph whose sink can never compute returns an error and
// leaves the engine reusable. A degraded completion (optional nodes
// skipped under Options.ErrorBudget) returns BOTH non-nil Stats and a
// non-nil *PartialError naming the failed and skipped nodes.
//
// Execute takes exclusive occupancy: it waits for in-flight Submit
// graphs to drain, then runs alone so the per-worker statistics describe
// exactly this graph. Concurrent Execute calls are safe — they serialize
// on an internal lock (and against Close), each running in turn.
//
// Repeated calls reuse the engine's workers, deques, and node table: the
// dense arena retires the previous run's nodes by bumping an epoch stamp
// (no reallocation, no per-slot clearing), the sharded map by clearing its
// shards in place. Specs may mutate state between calls (e.g. advance an
// iteration counter); the engine guarantees no worker touches spec or
// graph state across the call boundary.
func (e *Engine) Execute(sink Key) (*Stats, error) {
	return e.execute(nil, sink)
}

// ExecuteCtx is Execute with caller-controlled cancellation: ctx (which
// must be non-nil) aborts the admission wait and, once the run is
// admitted, the run itself — expiry marks the graph dead (workers
// discard its remaining items), releases its slot, and returns an error
// matching errors.Is(err, ErrCanceled) that also wraps ctx.Err(). The
// engine stays reusable after a canceled run.
func (e *Engine) ExecuteCtx(ctx context.Context, sink Key) (*Stats, error) {
	return e.execute(ctx, sink)
}

// execute is the shared exclusive-occupancy path; ctx is nil for plain
// Execute, keeping the no-ctx path free of watcher goroutines.
func (e *Engine) execute(ctx context.Context, sink Key) (*Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if ctx == nil {
		// Execute admission always blocks. Holding e.mu across the slot
		// send (and the run wait below) is the exclusivity contract:
		// concurrent Execute/Close serialize on e.mu while Submit traffic
		// proceeds under stateMu.
		e.slots <- struct{}{} //nabbit:lockheld-ok Execute holds e.mu by design
	} else {
		if err := ctx.Err(); err != nil {
			return nil, cancelErr(0, err)
		}
		select { //nabbit:lockheld-ok ctx-aware admission under the same contract
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, cancelErr(0, ctx.Err())
		}
	}
	r := &graphRun{id: e.nextID.Add(1), sink: sink, done: make(chan struct{})}

	// Wait for the pool to go quiet (no graphs in flight, every worker
	// parked, no wake token in flight), then reset the per-run worker
	// state and admit the graph in the same critical section: a
	// concurrent Submit cannot interleave its registration (it needs
	// stateMu) and no worker can be touching its stats.
	e.lockQuiet()
	pol := e.opts.Policy
	for i, w := range e.workers {
		w.stats = WorkerStats{}
		w.startedWork = false
		w.idleSince = time.Time{}
		w.spins = 0
		w.streak = 0
		w.rng.SeedWorker(pol.Seed, i)
		// The seeding worker starts with the root work, so its first
		// acquisition is not a steal.
		w.firstStealPending = pol.Colored && pol.ForceFirstColoredSteal && i != 0
		w.lastGrows = w.dq.Grows()
	}
	e.admitLocked(r)
	e.stateMu.Unlock()
	e.wakeOne()
	if ctx != nil {
		go e.watchCtx(ctx, r)
	}
	// The run wait keeps e.mu held: Execute is exclusive-occupancy, and
	// workers never take e.mu, so the hold cannot deadlock the run.
	<-r.done //nabbit:lockheld-ok Execute holds e.mu by design

	// A failed run has no per-worker stats to gather, and waiting for
	// quiescence here could block on a canceled graph's still-in-flight
	// Compute; return right away. The next execute/Close quiesces before
	// touching shared state anyway. A degraded run (non-nil stats AND a
	// *PartialError) did complete — gather normally and return both.
	if r.stats == nil {
		return nil, r.err
	}
	// A hang-degraded run leaves the timed-out node's goroutine blocked
	// in user code; quiescing on it would deadlock until the user's
	// Compute returns. Skip the per-worker gather (Workers stays nil, as
	// in Submit mode) and return the graph-level stats; the goroutine's
	// eventual completion lands on a finished run and is dropped.
	if r.stats.TimedOut > 0 {
		return r.stats, r.err
	}
	// Quiesce again before gathering: the finishing worker unwinds and
	// parks after closing done, and stats must not be read mid-write.
	e.lockQuiet()
	defer e.stateMu.Unlock()
	st := r.stats
	st.Workers = make([]WorkerStats, len(e.workers))
	for i, w := range e.workers {
		if !w.startedWork {
			w.stats.TimeToFirstWork = st.Elapsed
		}
		w.stats.DequeGrows = w.dq.Grows() - w.lastGrows
		st.Workers[i] = w.stats
	}
	return st, r.err
}

// lockQuiet acquires stateMu in the engine's quiet state: no graph in
// flight, nothing pending, and every worker parked (which, with the
// waker-side parked decrement, implies no wake token is in flight
// either).
func (e *Engine) lockQuiet() {
	for i := 0; ; i++ {
		e.stateMu.Lock()
		if e.active.Load() == 0 && len(e.pending) == 0 &&
			e.parked.Load() == int32(len(e.workers)) {
			// Quiet implies no worker can be touching a failed run's
			// nodes: recycle any quarantined tables before the caller
			// checks one out.
			e.reclaimTablesLocked()
			return
		}
		e.stateMu.Unlock()
		if i < 256 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Close drains in-flight graphs, then wakes and releases the worker
// goroutines. Graphs that can never finish are failed by the stall sweep
// rather than leaked. Close is idempotent and returns only after every
// worker has exited; Execute and Submit after Close error.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.closing.Store(true)
	close(e.closedCh)
	// Drain: workers keep running (closeFlag is still down) until every
	// admitted graph has finished or been failed by the stall sweep.
	for i := 0; ; i++ {
		e.stateMu.Lock()
		idle := e.active.Load() == 0 && len(e.pending) == 0
		e.stateMu.Unlock()
		if idle {
			break
		}
		if i < 256 {
			runtime.Gosched()
		} else {
			// The drain sleep holds only e.mu (stateMu is released each
			// sweep), and e.mu is the Close/Execute exclusivity lock.
			time.Sleep(10 * time.Microsecond) //nabbit:lockheld-ok Close holds e.mu by design
		}
	}
	e.closeFlag.Store(true)
	e.wakeAll()
	e.exitWG.Wait()
	// Stop the watchdog only after the drain: an in-flight graph hung on
	// a stuck Compute still needs the monitor to time it out, or the
	// drain loop above would never see the engine go idle.
	if e.watchdogOn {
		close(e.monStop)
		e.monWG.Wait()
	}
	return nil
}

// Run executes the task graph under a single-use engine: one NewEngine,
// one Execute, one Close. Iterative workloads that execute many graphs
// should hold an Engine instead and amortize the construction.
func Run(spec Spec, sink Key, opts Options) (*Stats, error) {
	e, err := NewEngine(spec, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Execute(sink)
}

// RunNabbit runs the graph under plain Nabbit (random stealing).
func RunNabbit(spec Spec, sink Key, workers int) (*Stats, error) {
	return Run(spec, sink, Options{Workers: workers, Policy: NabbitPolicy()})
}

// RunNabbitC runs the graph under NabbitC (colored scheduling).
func RunNabbitC(spec Spec, sink Key, workers int) (*Stats, error) {
	return Run(spec, sink, Options{Workers: workers, Policy: NabbitCPolicy()})
}

// anyWork reports whether any worker's deque holds a stealable item. Used
// only as a park-abandon check, so the O(P) scan is off every hot path.
func (e *Engine) anyWork() bool {
	for _, w := range e.workers {
		if w.dq.Len() > 0 {
			return true
		}
	}
	return false
}

// noteWork is the deque push hook: some worker just published a stealable
// item; wake one parked worker to go steal it. The common case (nobody
// parked) is a single atomic load.
func (e *Engine) noteWork() {
	if e.parked.Load() != 0 {
		e.wakeOne()
	}
}

func (e *Engine) wakeOne() {
	for _, w := range e.workers {
		if w.wake() {
			return
		}
	}
}

func (e *Engine) wakeAll() {
	for _, w := range e.workers {
		w.wake()
	}
}

// wake delivers one token to the worker if it is parked. Winning the CAS
// makes this caller the park's sole waker, so the one-slot channel send
// can never block. The waker also retires the worker's parked count:
// from the instant the CAS wins the worker is committed to running, and
// keeping parked == P equivalent to "no token in flight" is what lets
// Execute treat the all-parked state as fully quiescent.
func (w *worker) wake() bool {
	if w.parkState.CompareAndSwap(1, 0) {
		w.e.parked.Add(-1)
		w.parkCh <- struct{}{}
		return true
	}
	return false
}

// park puts the worker to sleep on its notify slot until a wake token
// arrives. The protocol is announce → recheck → block: cancel is
// evaluated only after the parked announcement is visible, so a producer
// either sees the announcement (and delivers a token) or published its
// work before the recheck (and cancel abandons the park) — no lost
// wakeups. If a waker wins the race against a cancelling parker, the
// parker consumes the in-flight token anyway so it cannot leak into a
// later park.
//
// Every park is also a stall-sweep site: if this announcement made the
// whole pool parked while graphs are still registered, no worker can
// ever make progress on them again, and the sweep fails them (see
// failStalled). announced, when non-nil, runs right after the
// announcement (the NewEngine start barrier).
func (w *worker) park(cancel func() bool, announced func()) {
	e := w.e
	w.stats.Parks++
	w.parkState.Store(1)
	e.parked.Add(1)
	if announced != nil {
		announced()
	}
	if e.parked.Load() == int32(len(e.workers)) &&
		(e.active.Load() > 0 || e.quarantined.Load() > 0) {
		e.failStalled()
	}
	if cancel != nil && cancel() {
		if w.parkState.CompareAndSwap(1, 0) {
			e.parked.Add(-1)
			w.stats.Parks--
			return
		}
		// Lost to a concurrent waker: its token is in flight (and the
		// waker already retired our parked count). Fall through and
		// consume it.
	}
	<-w.parkCh
	w.stats.Wakes++
}

// main is the persistent worker goroutine: seed pending graphs, drain
// the local deque, steal, park when idle, exit on close.
func (w *worker) main() {
	e := w.e
	defer e.exitWG.Done()
	if e.opts.PinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	// Initial park: announce through the start barrier so NewEngine
	// returns only once this worker's notify slot is live.
	w.park(nil, e.startWG.Done)
	for !e.closeFlag.Load() {
		if w.streak >= seedStride {
			w.streak = 0
			if w.trySeed() {
				continue
			}
			if w.tryRetry() {
				continue
			}
		}
		if ent, ok := w.dq.PopBottom(); ok {
			w.streak++
			w.exec(ent.Value)
			continue
		}
		w.streak = 0
		if w.trySeed() {
			continue
		}
		if w.tryRetry() {
			continue
		}
		if it, ok := w.findWork(); ok {
			w.exec(it)
		}
	}
}

// bail reports whether the worker should abandon its current hunt and
// return to the main loop: the engine is closing, or a pending graph is
// waiting to be seeded, or a retry has come due (both beat stealing —
// they are guaranteed work).
func (w *worker) bail() bool {
	e := w.e
	return e.closeFlag.Load() || len(e.pending) > 0 || e.retryDue.Load() > 0
}

// trySeed polls the pending queue and, on a hit, roots the graph: create
// its sink node and start resolving predecessors. A graph canceled
// before any worker reached it is simply discarded here — its failRun
// already did the cleanup (slot, registry, done), and draining the stale
// pending entry is all that remains.
func (w *worker) trySeed() bool {
	select {
	case r := <-w.e.pending:
		w.spins = 0
		if r.state.Load() != runLive {
			return true
		}
		w.markStarted(r)
		w.seed(r)
		return true
	default:
		return false
	}
}

// seed roots a just-admitted graph inside its failure boundary. The sink
// must be new — each graph owns a freshly reset table, so a pre-existing
// sink means the reset protocol broke (the panic fails only this graph).
func (w *worker) seed(r *graphRun) {
	defer w.rescue(r)
	w.curKey = r.sink
	n, created := r.nt.getOrCreate(r.sink)
	if !created {
		panic("core: sink node pre-existed at run start")
	}
	w.initAndCompute(r, n)
}

func (w *worker) markStarted(r *graphRun) {
	if !w.startedWork {
		w.startedWork = true
		w.stats.TimeToFirstWork = time.Since(r.start)
	}
}

// exec runs one deque item inside the owning graph's failure boundary.
// The single state load is the entire hot-path cost of cancellation and
// panic isolation: items of a failed or canceled graph are discarded
// right here, which is how a dead run's work drains out of every deque
// — the item already carries its *graphRun, so no new synchronization
// and no queue surgery.
//
//nabbit:noalloc
func (w *worker) exec(it item) {
	w.spins = 0
	r := it.run
	if r.state.Load() != runLive {
		return
	}
	w.markStarted(r)
	defer w.rescue(r)
	w.runItem(r, it.Item)
}

// rescue is the engine's panic-isolation boundary: a panic escaping a
// node's Compute — or any spec callback reached while processing an
// item (Predecessors, Color, Home, OnComplete) — is converted into a
// typed *ComputeError that fails only the owning graph. The worker
// goroutine survives: recover unwinds the item's spawn cascade, failRun
// marks the run dead, and every other deque item of the graph is
// discarded at its own exec boundary.
//
//nabbit:alloc-ok runs only when a Compute panicked; the graph is already dead
func (w *worker) rescue(r *graphRun) {
	v := recover()
	if v == nil {
		return
	}
	if w.e.watchdogOn {
		// A panic can unwind between publishExec and clearExec; a stale
		// publication would read as an ever-growing execution and make
		// the monitor re-fire forever.
		w.clearExec()
	}
	w.e.failRun(r, &ComputeError{
		GraphID: r.id,
		Key:     w.curKey,
		Value:   v,
		Stack:   debug.Stack(),
	})
}

// push reifies a continuation as a stealable deque item tagged with the
// colors available inside it (the paper's cilkrts_set_next_colors) and
// the graph it belongs to.
//
//nabbit:noalloc
func (w *worker) push(r *graphRun, it *sched.Item[Key, *Node]) {
	w.stats.Pushes++
	w.dq.PushBottom(deque.Entry[item]{
		Value:  item{run: r, Item: *it},
		Colors: it.Colors(len(w.e.workers)),
	})
}

// runItem interprets a morphing continuation: each split step (see
// sched.Item.Split) leaves one half stealable on the deque — spawn_colors
// while several color groups remain, spawn_nodes within the last one —
// and the worker then resolves the leaf it descended into: one ready
// node, or up to sched.Grain predecessor keys of the owner.
//
//nabbit:noalloc
func (w *worker) runItem(r *graphRun, it sched.Item[Key, *Node]) {
	if it.Size() == 0 {
		return
	}
	colored := w.e.opts.Policy.Colored
	grain := 1
	if it.Owner != nil {
		grain = sched.Grain(len(it.Owner.preds), len(w.e.workers))
	}
	var rest sched.Item[Key, *Node]
	for it.Split(w.color, colored, grain, &rest) {
		w.push(r, &rest)
	}
	if it.Owner != nil {
		w.resolveKeys(r, it.Owner, it.Single)
		return
	}
	w.computeAndNotify(r, it.Single.Nodes[0])
}

// resolveKeys resolves a leaf of owner's predecessor keys in order. A key
// whose predecessor already exists is settled inline: owner joins the
// predecessor's successor list, or — if the predecessor has already
// computed — the predecessor is accounted directly, possibly making owner
// ready. At the first key whose predecessor this call creates, the
// unresolved rest of the leaf is pushed back as one stealable item before
// the worker descends into the new node, so every sibling stays stealable
// and a leaf costs at most one push per node it creates.
//
//nabbit:noalloc
func (w *worker) resolveKeys(r *graphRun, owner *Node, leaf sched.Group[Key, *Node]) {
	for i, pk := range leaf.Keys {
		w.curKey = pk
		pred, created := r.nt.getOrCreate(pk)
		if created {
			// We created pred, so it cannot have computed yet; owner's
			// join will be accounted by pred's completion notification.
			pred.addSuccessor(owner)
			if rest := leaf.Keys[i+1:]; len(rest) > 0 {
				w.push(r, &sched.Item[Key, *Node]{
					Owner:  owner,
					Single: sched.Group[Key, *Node]{Color: leaf.Color, Keys: rest},
				})
			}
			w.initAndCompute(r, pred)
			return
		}
		if pred.addSuccessor(owner) {
			continue // notification will account this predecessor
		}
		// pred had already computed. If it was retired skipped (a degraded
		// cascade ran before this edge registered), no notification will
		// ever carry the taint to owner — propagate it here, or owner would
		// execute with a missing input.
		if pred.state.Load()&nodeSkipBit != 0 {
			owner.setSkip()
		}
		// The keys after this one are not yet accounted, so the join can
		// only drain at the leaf's last key.
		if owner.decJoin() {
			w.computeAndNotify(r, owner)
		}
	}
}

// initAndCompute processes a freshly created node: compute it immediately
// if it has no predecessors, otherwise spawn its predecessors grouped by
// color.
//
//nabbit:noalloc
func (w *worker) initAndCompute(r *graphRun, n *Node) {
	if len(n.preds) == 0 {
		w.computeAndNotify(r, n)
		return
	}
	if e := w.e; e.dense {
		w.runItem(r, w.grp.GroupKeys(n, n.preds, e.layout.color))
	} else {
		w.runItem(r, w.grp.GroupKeys(n, n.preds, e.spec.Color))
	}
}

// computeAndNotify executes a ready node, then notifies its successors,
// spawning any that became ready (grouped by color).
//
//nabbit:noalloc
func (w *worker) computeAndNotify(r *graphRun, n *Node) {
	w.curKey = n.key
	e := w.e
	if n.state.Load()&nodeSkipBit != 0 {
		// A skipped ancestor tainted this node before its join drained:
		// retire it without executing and continue the degradation
		// cascade (see degrade in retry.go).
		w.skipReady(r, n)
		return
	}
	if e.watchdogOn {
		w.publishExec(r, n)
	}
	var cerr error
	if e.fspec != nil {
		cerr = e.fspec.ComputeErr(n.key)
	} else {
		e.spec.Compute(n.key)
	}
	if e.watchdogOn {
		w.clearExec()
		if n.state.Load()&nodeSkipBit != 0 {
			// The watchdog claimed this node while it ran (it was
			// overdue): the claim owns the successor notification and
			// the run's fate, so this late completion is dropped
			// harmlessly — the paper-facing guarantee that a stuck (or
			// merely slow) Compute can never corrupt a graph the
			// watchdog already acted on.
			return
		}
	}
	if cerr != nil {
		w.computeFailed(r, n, cerr)
		return
	}

	// Locality accounting per the paper (§V-B): one access for the node
	// itself plus one per predecessor, judged by the data's true home
	// domain vs. this worker's domain. Counted only for the successful
	// attempt — failed ComputeErr attempts are retry bookkeeping, not
	// schedule work, and must not inflate the locality tables.
	topo := e.opts.Topology
	w.stats.NodesExecuted++
	if n.color == w.color {
		w.stats.OwnColorNodes++
	}
	w.stats.Accesses.Count(topo, w.color, n.home)
	if e.dense {
		// Every predecessor key was bound-checked when it was resolved.
		for _, pk := range n.preds {
			w.stats.Accesses.Count(topo, w.color, int(e.layout.homes[pk]))
		}
	} else {
		for _, pk := range n.preds {
			w.stats.Accesses.Count(topo, w.color, HomeOf(e.spec, pk))
		}
	}

	// A Compute can kill its own run (Ticket.Cancel from inside the
	// callback); once the run is observed dead, no further OnComplete
	// fires for it — the failed Wait has already returned, and a late
	// callback would race with whatever the caller does next.
	if e.opts.OnComplete != nil && r.state.Load() == runLive {
		e.opts.OnComplete(w.id, n.key)
	}

	succs := n.markComputed()
	// ready reuses the worker's scratch; GroupNodes copies out of it, and
	// the single-ready fast path extracts the node before the recursion
	// below reuses the scratch.
	ready := w.ready[:0]
	for _, s := range succs {
		if s.decJoin() {
			ready = append(ready, s)
		}
	}
	w.ready = ready
	if n.key == r.sink {
		// A DAG's sink has no successors and — since every other live
		// item of this graph would feed an unresolved join below the
		// sink — no items of this graph remain in any deque, so the
		// graph's table can be recycled right here (see finishRun).
		w.e.finishRun(r)
		return
	}
	switch len(ready) {
	case 0:
		return
	case 1:
		// A lone ready successor would round-trip through a one-node
		// item whose interpretation is exactly this call; skip the
		// wrapping (and its copy) entirely.
		n0 := ready[0]
		w.computeAndNotify(r, n0)
		return
	}
	w.runItem(r, w.grp.GroupNodes(ready, (*Node).Color))
}

// takeBatch accounts a successful batched steal and adopts every item
// after the first into w's own deque; the first (oldest) is returned for
// immediate execution.
func (w *worker) takeBatch(ents []deque.Entry[item]) item {
	w.stats.BatchOps++
	w.stats.BatchItems += int64(len(ents))
	for _, ent := range ents[1:] {
		w.dq.PushBottom(ent)
	}
	return ents[0].Value
}

// noteProbeFailed starts the idle clock if it is not already running.
// Called after a failed steal probe, so a findWork call whose very first
// probe hits never touches the clock.
func (w *worker) noteProbeFailed() {
	if w.idleSince.IsZero() {
		w.idleSince = time.Now()
	}
}

// idleSweep ends one fully unsuccessful probe sweep: spin (Gosched) while
// under the bounded-spin budget, then park until new work is pushed, a
// graph arrives, or the engine closes. It reports whether it parked: a
// woken worker must unwind to the main loop (not resume mid-hunt) so the
// pending poll and first-steal enforcement re-run per wake.
func (w *worker) idleSweep() bool {
	w.stats.SpinRounds++
	w.spins++
	if w.spins < spinBeforePark {
		runtime.Gosched()
		return false
	}
	w.spins = 0
	e := w.e
	w.park(func() bool {
		return e.closeFlag.Load() || len(e.pending) > 0 ||
			e.retryDue.Load() > 0 || e.anyWork()
	}, nil)
	return true
}

// findWork implements the stealing policy: while enforcing the first
// colored steal, only global colored probes count (bounded by the plan's
// give-up count); afterwards the worker walks its steal plan round after
// round (see sched.Plan) — for the flat protocol ColoredStealAttempts
// colored probes before each random steal, for the hierarchical one the
// socket tiers first (see Policy.Hierarchical).
//
// Idle time accrues from the first failed probe to the return — the
// all-hits fast path performs zero clock reads (cheap idle accounting;
// previously every call paid two time.Now calls plus a defer). Time spent
// parked counts as idle.
func (w *worker) findWork() (item, bool) {
	it, ok := w.hunt()
	if !w.idleSince.IsZero() {
		w.stats.IdleTime += time.Since(w.idleSince)
		w.idleSince = time.Time{}
	}
	return it, ok
}

// hunt is findWork without the idle-clock bookkeeping.
func (w *worker) hunt() (item, bool) {
	e := w.e
	if len(e.workers) == 1 {
		// A lone worker has no victims, and nothing outside this
		// goroutine can create work for a graph it is running: an empty
		// deque here means its graphs are done (or stalled). Park
		// instead of the historical 100%-CPU Gosched ping-pong; a new
		// graph or close wakes us.
		w.noteProbeFailed()
		w.park(func() bool {
			return e.closeFlag.Load() || len(e.pending) > 0 ||
				e.retryDue.Load() > 0
		}, nil)
		return item{}, false
	}

	pl := &w.plan
	for w.firstStealPending && !w.bail() {
		w.stats.FirstStealChecks++
		if it, ok := w.probe(TierGlobalColored, pl.Victim(w.rng, TierGlobalColored), 0); ok {
			w.firstStealPending = false
			w.stats.FirstStealForcedOK = true
			return it, true
		}
		if w.stats.FirstStealChecks >= pl.GiveUp() {
			w.firstStealPending = false
		} else if w.idleSweep() {
			return item{}, false
		}
	}

	for !w.bail() {
		for t := StealTier(0); t < NumStealTiers; t++ {
			for i := pl.Budget(t); i > 0; i-- {
				v := pl.Victim(w.rng, t)
				if it, ok := w.probe(t, v, pl.Batch(v)); ok {
					return it, true
				}
			}
		}
		if w.idleSweep() {
			return item{}, false
		}
	}
	return item{}, false
}

// probe makes one steal attempt of tier t on worker v — a batched steal
// of up to batch items when batch > 0 — and accounts it on every counter
// that tracks it.
func (w *worker) probe(t StealTier, v, batch int) (item, bool) {
	colored := t.Colored()
	w.stats.StealAttempts++
	w.stats.TierAttempts[t]++
	if colored {
		w.stats.ColoredAttempts++
	}
	dq := w.e.workers[v].dq
	var ent deque.Entry[item]
	var ents []deque.Entry[item]
	var out deque.StealOutcome
	switch {
	case t == TierSocketColored:
		ent, out = dq.StealTopMasked(w.plan.Socket())
	case colored && batch > 0:
		ents, out = dq.StealHalfColored(w.color, batch)
	case colored:
		ent, out = dq.StealTopColored(w.color)
	case batch > 0:
		ents, out = dq.StealHalf(batch)
	default:
		ent, out = dq.StealTop()
	}
	switch out {
	case deque.StealOK:
		w.stats.StealsOK++
		w.stats.TierSteals[t]++
		if colored {
			w.stats.ColoredStealsOK++
		}
		if ents != nil {
			return w.takeBatch(ents), true
		}
		return ent.Value, true
	case deque.StealMiss:
		w.stats.ColoredMisses++
	}
	w.noteProbeFailed()
	return item{}, false
}
