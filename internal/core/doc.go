// Package core implements Nabbit and NabbitC: dynamic task-graph
// scheduling with optional locality-aware (colored) scheduling, the
// primary contribution of "Locality-Aware Dynamic Task Graph Scheduling"
// (Maglalang, Krishnamoorthy, Agrawal).
//
// A computation is a directed acyclic graph of tasks. Each task is named
// by a Key and declares the keys of its predecessors; the graph is
// explored on demand starting from a single sink task whose completion
// ends the computation. Nabbit executes the graph with randomized work
// stealing. NabbitC additionally lets the user assign each task a color —
// the identity of the worker whose memory holds the task's data — and
// biases scheduling so that workers preferentially execute tasks of their
// own color via morphing continuations and colored steals, while
// preserving Nabbit's asymptotic completion-time guarantees.
//
// The same graph state is driven by two engines: the real parallel engine
// in this package (Engine / Run), and the deterministic virtual-time
// machine in package sim used to reproduce the paper's 80-core
// experiments.
//
// # Design note: the persistent engine lifecycle
//
// The real engine is a long-lived object: NewEngine builds the worker
// pool (one goroutine per worker), the per-worker deques, and the first
// node table once; Close releases the workers. Between those, two entry
// points drive task graphs through the shared pool. Execute runs one
// graph with exclusive occupancy and full WorkerStats; Submit admits a
// graph into a multi-tenant stream and returns a Ticket whose Wait
// yields that graph's Stats. Run is the single-use composition of
// NewEngine + Execute + Close. Iterative workloads — PageRank power
// iterations, stencil time stepping — hold one Engine and Execute once
// per outer iteration, so every construction cost (goroutine spawn,
// deque buffers, the preallocated node arena) is paid once and
// amortized; services with many independent small graphs Submit them
// concurrently and let workers interleave.
//
// Between graphs a node table must forget the previous occupant. The
// dense arena does this in O(1): the node state word reserves bits 6..30
// for an epoch stamp, every lifecycle transition preserves the stamp,
// and reset just bumps the arena's current epoch — a slot stamped with
// any other epoch reads as absent, so there is no per-slot clearing loop
// (the 25-bit stamp wraps once per 2^25 resets, at which point slots are
// cleared the slow way once). The sharded map clears its shards in
// place, keeping their buckets warm. Successor-list backing arrays
// survive the same way: markComputed truncates instead of dropping them,
// so steady-state Execute and Submit cycles allocate only run
// bookkeeping (single-digit allocations), never per-node storage.
//
// # Design note: multi-tenancy — per-graph runs, tables, and admission
//
// Each admitted graph is a graphRun: an engine-unique id, its own node
// table instance, and a completion channel. Because epochs are a
// property of a table instance, concurrent graphs cannot share one —
// instead the engine keeps a pool of idle table instances under its
// state lock; admission checks one out (reset to a fresh epoch) and
// completion returns it. The recycle point is safe by a scheduling
// invariant: when a run's sink computes, no deque can still hold an item
// of that run, because any such item would be feeding a join below the
// not-yet-computed sink. Every deque item carries its *graphRun, so
// workers are graph-oblivious: steals and pops interleave whatever mix
// of graphs is in flight, and a worker seeds a newly admitted graph from
// the pending queue on a fixed stride (seedStride) of local pops, which
// bounds how long a new graph waits behind a busy one.
//
// Admission is a slot semaphore of capacity Options.MaxInflight.
// AdmissionBlock (the default) makes Submit wait for a slot;
// AdmissionReject makes it fail fast with ErrSaturated. Execute uses the
// same semaphore — it blocks until it holds a slot, then waits for the
// engine to go quiet before taking exclusive occupancy, which is what
// entitles it to per-worker stats resets (and the lastGrows snapshot
// that keeps a failed run from corrupting the next run's DequeGrows
// deltas). A graph whose exploration dies without computing its sink
// (a dependency cycle) is detected by the last worker to park: if every
// worker is parked, nothing is pending, and no deque has work while runs
// are still registered, the stall sweep fails every registered run and
// releases its slot — the engine stays reusable, byte-identical to a
// fresh one.
//
// # Design note: the parking protocol
//
// Idle workers do not spin indefinitely. Each worker carries a notify
// slot: an atomic parkState flag plus a one-token channel. A worker that
// completes spinBeforePark unsuccessful probe sweeps parks: it announces
// parkState (and the global parked count), re-checks its wake condition
// (shutdown / pending submissions / any deque non-empty), and only then
// blocks on the channel. A waker CASes parkState parked→running and, on
// winning, decrements the parked count and sends exactly one token;
// losing the CAS means someone else owns the wake. Announce-then-recheck
// on one side and publish-then-scan on the other make the classic Dekker
// argument: a producer either observes the parked announcement (and
// delivers a token) or published its work before the recheck (and the
// park is abandoned) — no lost wakeups, which the race-stress test pins.
// Decrementing parked on the waker side (not when the sleeper resumes)
// keeps the quiet-state reading exact: parked == workers implies no wake
// token is in flight.
//
// Wake sources: every deque PushBottom fires a hook that wakes one
// parked worker when any are parked (one atomic load otherwise);
// admission (Submit or Execute) wakes one worker to seed the new graph;
// Close wakes everyone. Every park unwinds to the worker's main loop
// before hunting again, so each wake re-polls the pending queue and
// re-runs first-steal enforcement. The all-parked state doubles as the
// engine's quiescence barrier — Execute takes occupancy and gathers
// stats only when every worker is parked, which is what makes resetting
// per-worker stats race-free without locking the hot paths; it is also
// the trigger for the stall sweep above. Parks, Wakes, and SpinRounds
// are reported per worker in WorkerStats.
//
// # Design note: the node lifecycle word
//
// Every Node carries one atomic state word encoding its lifecycle phase
// plus a successor-list claim bit. The phases are monotonic:
//
//	absent ──CAS──▶ initializing ──store──▶ ready ──store──▶ computed
//
// In detail:
//
//   - absent: the arena slot exists but no worker has named the key yet
//     (map-backed nodes are born directly in ready — the shard lock
//     already serializes their creation).
//   - initializing: exactly one worker won the CAS from absent and is
//     filling in the predecessor list and join counter. Losers of the CAS
//     spin (briefly — Predecessors is cheap by Spec contract) until the
//     ready store publishes the fields; the atomic load/store pair gives
//     the required happens-before edge.
//   - ready: the node is fully initialized. Predecessor accounting runs:
//     successors register via addSuccessor (append under the claim bit)
//     and predecessors decrement the join counter. The worker whose
//     decrement reaches zero computes the node.
//   - computed: markComputed drained the successor list and published the
//     computed phase, the cleared claim bit, and the drained list in a
//     single atomic store; from that instant addSuccessor refuses new
//     registrations, so every successor is notified exactly once.
//
// The claim bit (succLockBit) is a short CAS-acquired spin lock guarding
// the succs slice — held across one append or one slice swap, never
// across a spec call. It replaces the per-node sync.Mutex the
// addSuccessor/markComputed handshake previously took: the uncontended
// cost drops to one CAS + one store, there is no futex slow path, and
// folding it into the lifecycle word lets one load answer "computed?"
// on the scan fast path (previously a separate mirror atomic).
//
// # Design note: dense arena vs sharded map
//
// The engine resolves keys through one of two nodeTable backends, chosen
// per run (Options.NodeTable, default auto):
//
//   - nodeArena — used when the spec declares a bounded key universe
//     (BoundedSpec / FuncSpec.BoundFn). One flat []Node is preallocated
//     for the whole universe, with a key → slot index computed up front.
//     The index, with every key's color and home, is a keyLayout built
//     once per engine and shared by every arena the engine pools; the
//     workers group predecessor keys by its colors and account locality
//     by its homes, so the spec's Color and Home run once per key, never
//     per edge. getOrCreate is an array index plus one atomic load
//     (lookup) or one CAS (create): no hashing, no locks, no per-node
//     allocation. Slots are laid out home-major (HomeMajorIndex): tasks
//     whose data lives at the same color sit contiguously, so a worker
//     sweeping its own color's tasks walks a dense region of the arena
//     instead of chasing map buckets — the paper's assumption that task
//     data clusters at its home color, applied to the scheduler's own
//     metadata. All benchmark workloads (stencil grids, CSR blocks,
//     wavefronts) have such bounds known at spec time.
//   - nodeMap — a 128-way sharded RWMutex hash map, the fallback for
//     truly dynamic specs that cannot bound their key space.
//
// Both backends hand out identical *Node values running the lifecycle
// protocol above, so the scheduler proper is backend-oblivious, and the
// simulator mirrors the same split with byte-identical schedules across
// backends (see internal/sim).
//
// # Design note: the failure model
//
// A multi-tenant engine must not let one tenant's bug take down the
// pool. Failure is therefore a per-graph event, never a per-engine one,
// built from three pieces.
//
// Panic isolation. Every path on which a worker runs user code — a
// node's Compute, or any spec callback reached while processing an item
// — sits under a recover boundary (worker.rescue) at the exec/seed
// entry points. A panic unwinds only the current item's spawn cascade;
// rescue converts it into a *ComputeError carrying the graph id, the
// key the worker was processing, the recovered value, and the stack,
// then fails the owning run. The worker goroutine itself survives and
// goes back to its deque. A spec callback that panics mid-creation
// would otherwise leave a node stuck in initializing (arena) or a shard
// lock exposed (map); both backends therefore publish a poisoned node
// on the panic path — empty predecessors and an unreachable join count
// — so racing workers never spin forever on a half-built node.
//
// Completion is decided exactly once per run by a CAS on the graphRun's
// state word (runLive → runDone or runFailed). The winner — the sink's
// computing worker, Ticket.Cancel, a context watcher, a rescuing
// worker, or the stall sweep — owns the whole completion: registry
// removal, admission-slot release, table disposal, and closing the done
// channel. Everyone else's attempt is a no-op, which is what makes
// Cancel racing a normal finish (or two cancels racing each other)
// safe.
//
// Cancellation. The failed state also serves as the discard signal:
// every deque item already carries its *graphRun, so a worker skips
// items of a dead run with a single atomic load at the exec boundary —
// no deque surgery, no new synchronization on the hot path; a dead
// graph's items simply drain as they surface. SubmitCtx/ExecuteCtx
// attach a context by spawning a watcher goroutine that fails the run
// when the context fires first; admission waits honor the context too.
// Cancellation is asynchronous with respect to in-flight nodes: the
// node a worker has already started runs to completion, but no further
// nodes of that graph are begun, and once a run is observed dead its
// OnComplete callbacks stop (a Compute that cancels its own run via
// Ticket.Cancel gets no completion callback for the canceling node).
//
// What is reusable after a failure: the engine, fully. Workers, deques,
// and the admission semaphore are untouched by construction; the failed
// run's slot is released by the completion owner. The one subtlety is
// the run's node table: at fail time workers may still be touching it
// through in-flight items, so it cannot go straight back to the pool.
// failRun quarantines it on a dead-tables list, and the engine returns
// quarantined tables to the pool only at proven-quiet points — when
// Execute observes all workers parked, or when the stall sweep runs
// (which itself only fires from the last parking worker). Subsequent
// graphs therefore see either a recycled clean table or a fresh one,
// and schedules after a failure are byte-identical to a fresh engine's
// — pinned by tests and the harness faults experiment. What is not
// reusable: the failed graph's partial results; resubmitting the same
// sink re-explores the graph from scratch in a new epoch.
//
// Every failure is typed: *ComputeError for recovered panics and
// exhausted retries, ErrCanceled (wrapped with the graph id and the
// context cause) for Cancel and context expiry, *TimeoutError for
// watchdog kills, *PartialError for degraded completions, *StallError —
// carrying a bounded sample of the still-pending keys — for graphs
// whose sink can provably never compute, and ErrClosed/ErrSaturated for
// lifecycle and admission refusals. All compose with
// errors.Is/errors.As. Package chaos provides the seeded
// fault-injection harness that drives this model deterministically.
//
// # Design note: transient-fault recovery
//
// Faults in long-running graph services are often transient — a remote
// fetch times out, a resource is briefly contended — so killing the
// graph on first failure wastes everything already computed. Three
// cooperating mechanisms make failure survivable without giving up the
// model above.
//
// Retry with backoff. A spec that implements FallibleSpec (ComputeErr
// returning error; FuncSpec.ComputeErrFn) reports failures as values
// instead of panics. Under Options.Retry, a failed attempt re-arms the
// node in its lifecycle word: the word reserves bits 2..4 as an attempt
// counter, and bumpAttempt CASes the counter up while rolling the phase
// back to ready — the same single-word protocol as the rest of the
// lifecycle, so no new per-node storage. (Like setSkip, the CAS never
// lands while succLockBit is held: the holder's unlock store would
// erase the update.) The re-armed node is then re-enqueued after a
// deterministic backoff — base × multiplier^attempt, jittered by the
// engine-seeded xrand stream — via a timer that appends to an engine
// retry queue; workers drain the queue on the same park/wake protocol
// as fresh submissions, so a retry behaves exactly like newly
// discovered work. When the counter reaches MaxAttempts the failure
// becomes a *ComputeError carrying the attempt count and wrapping both
// ErrComputeFailed and the spec's own error chain. Re-running an
// attempted node is safe by the same argument as panic isolation: a
// failed attempt performed no markComputed, so no successor ever
// observed it.
//
// The hang watchdog. A Compute that never returns cannot be recovered
// by retries — nothing unwinds. Instead, each worker publishes its
// current execution (run, node, start time) in a per-worker seqlock
// before every Compute and clears it after; a lock-free monitor
// goroutine, started only when Options.NodeTimeout or RunDeadline is
// set, samples the publications on a period derived from the smaller
// limit. An overdue node (or an overdue run) is failed through the same
// single-completion CAS as every other failure — the monitor never
// touches the stuck goroutine, which keeps running until user code
// returns; its eventual completion lands on a dead run and is dropped
// at the exec boundary like any canceled item. The publication holds
// the *Node pointer rather than a key so a recycled table can never
// make the monitor resolve a stale key in a fresh graph. One
// consequence: an Execute whose run was hang-degraded skips the
// quiescence-gated per-worker stats gather (Workers stays nil, as in
// Submit mode), because quiescing would wait on the stuck goroutine.
//
// Graceful degradation. A spec may mark nodes optional (OptionalSpec /
// FuncSpec.OptionalFn): best-effort enrichments whose loss should
// narrow the result, not destroy it. When an optional node exhausts its
// retries (or overruns NodeTimeout) and the run still has error budget
// (Options.ErrorBudget, per run, spent by atomic decrement), the node
// is not failed — it is skipped: nodeSkipBit is set on it and
// propagated through its successor cone by the normal join-counter
// cascade, so exactly the data-dependent downstream nodes are retired
// unexecuted and independent subgraphs proceed untouched. A degraded
// run completes with both Stats (Retries, TimedOut, Skipped ledgered)
// and a *PartialError listing the failed keys and a bounded sample of
// the skipped ones. A skipped sink still completes the run — degraded,
// not failed. Budget exhausted means the next permanent failure fails
// the run with its ordinary typed error.
package core
