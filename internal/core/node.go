package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Node lifecycle phases, held in the low two bits of Node.state (see
// doc.go for the full state machine). The phase is monotonic within a run:
// absent → initializing → ready → computed.
const (
	nodeAbsent   uint32 = iota // arena slot exists, node not yet created
	nodeIniting                // creator won the claim and is filling fields
	nodeReady                  // fields published; successors may register
	nodeComputed               // Compute finished; successor list drained
)

// The state word carves a uint32 into five fields:
//
//	bit  31     succLockBit — successor-list claim bit
//	bits 6..30  epoch stamp — which Engine.Execute the slot belongs to
//	bit  5      nodeSkipBit — degraded: this node must not execute
//	bits 2..4   attempt counter — failed ComputeErr attempts so far
//	bits 0..1   lifecycle phase
//
// succLockBit is a short CAS-acquired spin lock guarding succs, orthogonal
// to the phase bits. It is only ever held across a bounded handful of
// instructions (one append, or one slice swap), so spinning is cheaper
// than a sync.Mutex — and folding it into the lifecycle word lets
// markComputed publish "computed, unlocked, drained" in a single atomic
// store.
//
// The attempt counter re-arms a fallible node for retry without any side
// storage: a failed ComputeErr bumps it (bumpAttempt) and the node —
// still ready, join already zero — is simply re-enqueued. nodeSkipBit is
// the graceful-degradation taint: a permanently failed optional node is
// retired computed+skipped, and the bit propagates to its downstream
// cone so no descendant executes user code (see Engine.degrade). Both
// fields are cleared by the computed store (markComputed/claimSkip use
// epochMask, which masks them out) and by the arena's fresh-epoch fill.
//
// The epoch stamp is how the dense arena resets between Execute calls
// without touching every slot: the arena bumps its current epoch, and any
// slot whose stamp differs reads as absent (see nodeArena.reset). Within a
// run every lifecycle transition preserves the stamp, so markComputed and
// addSuccessor never need to know the current epoch. Map-backed nodes are
// freshly allocated per run and keep stamp 0 forever.
//
// The directive below is machine-checked: nabbitvet's atomicbits
// analyzer proves these constants carve exactly the declared bit
// ranges, disjointly, and that no code manipulates the word with raw
// literal masks. Change the layout and the directive together.
//
//nabbit:bitfield word=state width=32 layout=phase:0-1,attempt:2-4,skip:5,epoch:6-30,succlock:31
const (
	phaseMask    uint32 = 0b11
	attemptShift        = 2
	attemptUnit  uint32 = 1 << attemptShift
	attemptMask  uint32 = 0b111 << attemptShift
	attemptMax   uint32 = attemptMask >> attemptShift
	nodeSkipBit  uint32 = 1 << 5
	succLockBit  uint32 = 1 << 31
	epochMask    uint32 = ^(phaseMask | attemptMask | nodeSkipBit | succLockBit)
	epochUnit    uint32 = 1 << 6 // one epoch increment, pre-shifted
)

// nodePhase extracts the lifecycle phase from a state-word value.
func nodePhase(v uint32) uint32 { return v & phaseMask }

// poisonedJoin is the join value published for a node whose spec init
// (Predecessors/Color/Home) panicked: large enough that no legal
// decrement sequence reaches zero, so the node can never become ready or
// compute. The owning graph is already failing — the panic propagates to
// the worker's rescue boundary — so the poisoned node only has to keep
// concurrent workers of the same graph from hanging on an initializing-
// forever slot or computing a half-built node.
const poisonedJoin = int32(1) << 30

// Node is the runtime state of one task. Nodes are created on demand the
// first time any worker names their key, and live until the run ends.
//
// Lifecycle: a node is created (atomically, exactly once) with its
// predecessor list and a join counter equal to the number of
// predecessors. Each predecessor is accounted exactly once — either
// immediately (it had already computed when the scanning worker reached
// it) or by the notification the predecessor sends on completion to every
// node in its successor list. The worker whose decrement takes the join
// counter to zero executes the node. Nodes with no predecessors execute
// immediately upon creation by their creator.
//
// All cross-worker coordination rides the single atomic state word (phase
// + successor-list claim bit); see doc.go for the protocol.
type Node struct {
	key   Key
	color int
	home  int
	preds []Key
	// join counts unaccounted predecessors. The worker that decrements
	// it to zero owns the right (and obligation) to compute the node.
	join atomic.Int32

	// state is the lifecycle word: phase in the low bits, succLockBit on
	// top. succs may be touched only while holding the claim bit.
	state atomic.Uint32
	succs []*Node
}

// Key returns the node's task key.
func (n *Node) Key() Key { return n.key }

// Color returns the scheduling color the spec assigned to the task.
func (n *Node) Color() int { return n.color }

// Home returns the color whose memory holds the task's data.
func (n *Node) Home() int { return n.home }

// Preds returns the task's predecessor keys. Callers must not modify the
// returned slice.
func (n *Node) Preds() []Key { return n.preds }

// Computed reports whether the task has finished executing.
func (n *Node) Computed() bool { return nodePhase(n.state.Load()) == nodeComputed }

// lockSuccs acquires the successor-list claim bit and returns the state
// word as it was without the bit (i.e. the value to store to unlock
// without a phase change).
//
//nabbit:noalloc
func (n *Node) lockSuccs() uint32 {
	// The holder is mid-append or mid-drain — a handful of instructions —
	// so a short tight retry loop wins over yielding; the Gosched
	// fallback only matters if the holder got preempted mid-hold.
	for spins := 0; ; spins++ {
		v := n.state.Load()
		if v&succLockBit == 0 && n.state.CompareAndSwap(v, v|succLockBit) {
			return v
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// addSuccessor appends s to n's successor list so that n's completion will
// account one of s's predecessors. It returns false — and appends nothing —
// if n has already computed, in which case the caller must account the
// predecessor itself.
//
//nabbit:noalloc
func (n *Node) addSuccessor(s *Node) bool {
	v := n.lockSuccs()
	if nodePhase(v) == nodeComputed {
		n.state.Store(v)
		return false
	}
	n.succs = append(n.succs, s)
	n.state.Store(v)
	return true
}

// markComputed transitions the node to computed and returns the successor
// list to notify. The computed phase and the drained list are published by
// one atomic store (which also releases the claim bit), so addSuccessor
// refuses new entries from that instant on and every successor is notified
// exactly once.
//
//nabbit:noalloc
func (n *Node) markComputed() []*Node {
	v := n.lockSuccs()
	succs := n.succs
	// Truncate rather than nil: the backing array is dead for the rest of
	// this run (addSuccessor refuses once computed) but a reused arena
	// slot appends into it again next epoch, so keeping it makes repeated
	// Execute calls allocation-free on the notify path. The caller
	// finishes iterating the returned slice within this run, strictly
	// before any next-epoch append can touch the backing.
	n.succs = succs[:0]
	// Preserve the epoch stamp: the arena's reset relies on every slot a
	// run touched carrying that run's epoch.
	n.state.Store(v&epochMask | nodeComputed)
	return succs
}

// bumpAttempt records one failed ComputeErr attempt in the state word
// and returns the total attempt count including it. The 3-bit counter
// saturates at attemptMax; a saturated counter reports attemptMax+1
// (= MaxRetryAttempts), which every legal Options.Retry.MaxAttempts
// treats as exhausted. Only the worker that owns the node's execution
// calls this, but the word itself sees concurrent traffic: the CAS must
// not land while succLockBit is held, because the holder's unlock store
// writes back its captured pre-lock value and would erase the bump.
//
//nabbit:noalloc
func (n *Node) bumpAttempt() int {
	for spins := 0; ; spins++ {
		v := n.state.Load()
		a := (v & attemptMask) >> attemptShift
		if a == attemptMax {
			return int(a) + 1
		}
		if v&succLockBit == 0 && n.state.CompareAndSwap(v, v+attemptUnit) {
			return int(a) + 1
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// setSkip taints the node: a skipped ancestor can no longer produce its
// inputs, so when this node's join drains it must be retired, not
// executed. Like bumpAttempt, the CAS waits out a succLockBit holder
// (whose unlock store would erase a mid-hold write); racing lifecycle
// transitions are otherwise safe — the computed store clears the bit,
// and a node both tainted and ready is routed to the skip path at the
// compute entry point.
//
//nabbit:noalloc
func (n *Node) setSkip() {
	for spins := 0; ; spins++ {
		v := n.state.Load()
		if v&nodeSkipBit != 0 {
			return
		}
		if v&succLockBit == 0 && n.state.CompareAndSwap(v, v|nodeSkipBit) {
			return
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// claimSkip atomically retires a node that must never execute: the
// phase becomes computed with nodeSkipBit set (attempt bits cleared,
// epoch preserved) and the drained successor list is returned for
// notification, exactly like markComputed. ok=false reports that a
// racing normal completion already computed the node, in which case
// nothing was changed and the caller owes no notifications.
//
//nabbit:noalloc
func (n *Node) claimSkip() (succs []*Node, ok bool) {
	v := n.lockSuccs()
	if nodePhase(v) == nodeComputed {
		n.state.Store(v)
		return nil, false
	}
	succs = n.succs
	n.succs = succs[:0]
	n.state.Store(v&epochMask | nodeSkipBit | nodeComputed)
	return succs, true
}

// decJoin accounts one predecessor and reports whether the node became
// ready (join reached zero).
//
//nabbit:noalloc
func (n *Node) decJoin() bool {
	v := n.join.Add(-1)
	if v < 0 {
		panic("core: join counter went negative — a predecessor was accounted twice")
	}
	return v == 0
}

// nodeTable is the engine's key → node store, providing the atomic
// create-or-get that Nabbit's dynamic exploration relies on (the paper's
// "atomically attempt to create a predecessor with key pkey"). Two
// backends implement it: nodeMap, a sharded hash map for arbitrary key
// universes, and nodeArena, a flat preallocated array for specs that
// declare a bounded key universe (BoundedSpec). getOrCreate and get are
// worker-hot; count is post-run only.
type nodeTable interface {
	// getOrCreate returns the node for k, creating it if absent. The
	// boolean reports whether this call created the node; exactly one
	// caller per key observes true, and that caller is responsible for
	// processing the node's predecessors (the node is returned fully
	// initialized either way).
	getOrCreate(k Key) (*Node, bool)
	// get returns the node for k if it has been created.
	get(k Key) (*Node, bool)
	// count returns the number of created nodes.
	count() int
	// reset forgets every created node so the table can serve a fresh
	// run. Callers must guarantee quiescence: no worker touches the table
	// (or any node it handed out) across a reset.
	reset()
	// pendingKeys returns the keys of created-but-never-computed nodes
	// in ascending order — the stall sweep's diagnostic payload. Callers
	// must guarantee quiescence (same contract as reset).
	pendingKeys() []Key
}

// nodeShardCount is a power of two sized to keep per-shard contention low
// at the paper's 80-worker scale.
const nodeShardCount = 128

type nodeShard struct {
	mu sync.RWMutex
	m  map[Key]*Node
	// pad rounds the shard up to a whole 64-byte cache line so adjacent
	// shards never share one (RWMutex 24B + map header 8B = 32B; see the
	// size assertion in core_test.go).
	_ [64 - (unsafe.Sizeof(sync.RWMutex{})+unsafe.Sizeof(map[Key]*Node(nil)))%64]byte
}

// nodeMap is the sharded-hash-map nodeTable: the fallback for specs whose
// key universe is unbounded or too large to preallocate.
type nodeMap struct {
	spec   Spec
	shards [nodeShardCount]nodeShard
}

func newNodeMap(spec Spec) *nodeMap {
	nm := &nodeMap{spec: spec}
	for i := range nm.shards {
		nm.shards[i].m = make(map[Key]*Node)
	}
	return nm
}

func shardOf(k Key) uint64 {
	// Fibonacci hashing spreads sequential keys across shards.
	return (uint64(k) * 0x9e3779b97f4a7c15) >> (64 - 7)
}

func (nm *nodeMap) getOrCreate(k Key) (*Node, bool) {
	sh := &nm.shards[shardOf(k)]
	// Fast path: most getOrCreate calls are lookups of existing nodes
	// (every edge after the first names an already-created predecessor),
	// and an RLock neither contends with other readers nor pays the
	// RWMutex writer-lock's extra bookkeeping.
	sh.mu.RLock()
	if n, ok := sh.m[k]; ok {
		sh.mu.RUnlock()
		return n, false
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	if n, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return n, false
	}
	// Initialize outside the shard lock? Predecessors() may be
	// arbitrarily expensive, but releasing the lock would let a second
	// creator race. Keep initialization under the lock: Predecessors is
	// required to be cheap per call (specs precompute), and a placeholder
	// protocol would trade a rare stall for a subtle
	// published-before-initialized hazard. (The arena backend does run
	// the placeholder protocol — its lifecycle word makes the hazard
	// tractable; see nodeArena.getOrCreate.)
	n := &Node{key: k}
	done := false
	// The deferred publish also runs when a spec callback below panics:
	// the node is published poisoned (empty preds, a join no decrement
	// sequence can drain) and the shard is unlocked, so a panicking spec
	// can never leave a shard locked or a key half-created — the panic
	// then unwinds to the worker's rescue boundary and fails the graph.
	defer func() {
		if !done {
			n.preds = nil
			n.join.Store(poisonedJoin)
		}
		n.state.Store(nodeReady)
		sh.m[k] = n
		sh.mu.Unlock()
	}()
	n.color = nm.spec.Color(k)
	n.home = HomeOf(nm.spec, k)
	n.preds = nm.spec.Predecessors(k)
	n.join.Store(int32(len(n.preds)))
	done = true
	return n, true
}

// get returns the node for k if it exists. Read-only: concurrent readers
// (post-run stats, checkers) share the lock instead of serializing.
func (nm *nodeMap) get(k Key) (*Node, bool) {
	sh := &nm.shards[shardOf(k)]
	sh.mu.RLock()
	n, ok := sh.m[k]
	sh.mu.RUnlock()
	return n, ok
}

// reset drops every node. clear() keeps each map's buckets allocated, so
// a reused engine's later runs insert into warm tables instead of
// re-growing them from scratch.
func (nm *nodeMap) reset() {
	for i := range nm.shards {
		sh := &nm.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

func (nm *nodeMap) count() int {
	total := 0
	for i := range nm.shards {
		sh := &nm.shards[i]
		sh.mu.RLock()
		total += len(sh.m)
		sh.mu.RUnlock()
	}
	return total
}

// pendingKeys lists created-but-never-computed nodes, sorted. Called
// only from the stall sweep's proven-quiet point, so the shard locks are
// uncontended formality.
func (nm *nodeMap) pendingKeys() []Key {
	var keys []Key
	for i := range nm.shards {
		sh := &nm.shards[i]
		sh.mu.RLock()
		for k, n := range sh.m {
			if nodePhase(n.state.Load()) != nodeComputed {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	slices.Sort(keys)
	return keys
}

// forEach visits every created node. Not for use while workers run; not
// part of the nodeTable contract (nothing engine-side iterates nodes).
func (nm *nodeMap) forEach(fn func(*Node)) {
	for i := range nm.shards {
		sh := &nm.shards[i]
		sh.mu.RLock()
		for _, n := range sh.m {
			fn(n)
		}
		sh.mu.RUnlock()
	}
}

// HomeMajorIndex computes the dense arena's key → slot assignment: slots
// are ordered by home color (keys with the same home contiguous, homes
// ascending), stable by key within a home. Homes outside [0, workers) —
// colors the scheduler cannot localize anyway — share one overflow bucket
// after the real homes. Both the real engine's arena and the simulator's
// mirror call this one function, so their layouts can never drift apart.
func HomeMajorIndex(bound, workers int, homeOf func(Key) int) []int32 {
	buckets := workers + 1
	bucketOf := make([]int32, bound)
	starts := make([]int32, buckets+1)
	for k := 0; k < bound; k++ {
		b := int32(workers)
		if h := homeOf(Key(k)); h >= 0 && h < workers {
			b = int32(h)
		}
		bucketOf[k] = b
		starts[b+1]++
	}
	for b := 0; b < buckets; b++ {
		starts[b+1] += starts[b]
	}
	idx := make([]int32, bound)
	for k := 0; k < bound; k++ {
		b := bucketOf[k]
		idx[k] = starts[b]
		starts[b]++
	}
	return idx
}

// keyLayout is the dense arena's precomputation over the key universe
// [0, bound): every key's color and true home, evaluated once, and the
// home-major slot index built from the homes. It is immutable after
// construction, so one engine builds it once and shares it with every
// arena it pools; the workers read colors and homes from it instead of
// calling the spec per edge.
type keyLayout struct {
	index  []int32 // key -> slot in nodes
	colors []int32 // key -> Color
	homes  []int32 // key -> HomeOf
}

func newKeyLayout(spec Spec, bound, workers int) keyLayout {
	// One pass over the universe caches every key's color and true home
	// (mirroring HomeOf without a second Color call per key), then the
	// shared layout function turns the homes into slot assignments.
	colors := make([]int32, bound)
	homes := make([]int32, bound)
	hs, hasHome := spec.(HomeSpec)
	for k := 0; k < bound; k++ {
		c := spec.Color(Key(k))
		h := c
		if hasHome {
			h = hs.Home(Key(k))
		}
		colors[k] = int32(c)
		homes[k] = int32(h)
	}
	return keyLayout{
		index:  HomeMajorIndex(bound, workers, func(k Key) int { return int(homes[k]) }),
		colors: colors,
		homes:  homes,
	}
}

// checkKey panics with the typed bound message when k lies outside the
// universe. Resolving a key (getOrCreate) and reading its cached color
// both check it first, so a bad predecessor key fails its graph with that
// message (through the rescue boundary) rather than with a bare index
// panic — whichever of the two reaches the key first.
//
//nabbit:noalloc
func (l *keyLayout) checkKey(k Key) {
	if k < 0 || int64(k) >= int64(len(l.index)) {
		keyOutOfBound(k, len(l.index)) //nabbit:alloc-ok inlined panic-only formatting
	}
}

// keyOutOfBound is checkKey's failure path.
//
//nabbit:alloc-ok panic-only formatting; the graph is already failing
func keyOutOfBound(k Key, bound int) {
	panic(fmt.Sprintf("core: key %d outside the spec's declared bound %d", k, bound))
}

// color returns k's cached color.
//
//nabbit:noalloc
func (l *keyLayout) color(k Key) int {
	l.checkKey(k)
	return int(l.colors[k])
}

// nodeArena is the dense nodeTable: one flat []Node preallocated for the
// whole key universe [0, bound), laid out home-major (HomeMajorIndex) so
// tasks whose data lives at the same color are contiguous in memory — the
// cache/NUMA-locality layout the paper's locality-aware variant assumes.
// Key, color and home are prefilled at construction from the engine's
// shared keyLayout; create-or-get is a single CAS on the node's lifecycle
// word with no lock, no hashing, and no allocation (the predecessor slice
// comes from the spec).
type nodeArena struct {
	spec    Spec
	layout  *keyLayout
	nodes   []Node
	created atomic.Int64
	// epoch is the current run's stamp, pre-shifted into state-word
	// position (a multiple of epochUnit). A slot whose stamped epoch
	// differs reads as absent; reset bumps it instead of clearing slots.
	// Written only between runs (all workers quiescent), read by all
	// workers during a run — the Engine's park/wake handshake provides the
	// happens-before edge.
	epoch uint32
}

func newNodeArena(spec Spec, l *keyLayout) *nodeArena {
	a := &nodeArena{spec: spec, layout: l, nodes: make([]Node, len(l.index))}
	for k, slot := range l.index {
		n := &a.nodes[slot]
		n.key = Key(k)
		n.color = int(l.colors[k])
		n.home = int(l.homes[k])
	}
	return a
}

// getOrCreate claims the slot's lifecycle word: the CAS winner fills the
// node in and publishes it with the ready store; losers (and every later
// lookup) take the phase-load fast path. Unlike the sharded map, a lookup
// costs one array index and one atomic load — no hashing, no lock — and
// creation allocates nothing.
//
//nabbit:noalloc
func (a *nodeArena) getOrCreate(k Key) (*Node, bool) {
	a.layout.checkKey(k)
	n := &a.nodes[a.layout.index[k]]
	cur := a.epoch
	v := n.state.Load()
	if v&epochMask == cur && nodePhase(v) >= nodeReady {
		return n, false
	}
	// Absent this epoch: an absent phase (the zero word of a fresh or
	// wrap-cleared arena) or a stale stamp left by a previous Execute.
	// Claim it by CAS from the exact observed word; any concurrent
	// claimant observed the same word, so exactly one wins.
	for v&epochMask != cur || nodePhase(v) == nodeAbsent {
		if n.state.CompareAndSwap(v, cur|nodeIniting) {
			a.fill(n, k, cur)
			return n, true
		}
		v = n.state.Load()
	}
	// Lost the creation race: the winner is inside the (cheap, by spec
	// contract) Predecessors call. Spin until the ready store publishes
	// the fields; the atomic load pairs with it, so everything the winner
	// wrote is visible here. A winner whose spec panicked still publishes
	// (poisoned — see fill), so this spin is bounded even on failure.
	for spins := 0; ; spins++ {
		v = n.state.Load()
		if v&epochMask == cur && nodePhase(v) >= nodeReady {
			return n, false
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// fill completes a slot whose creation CAS the caller just won: run the
// spec's init (Predecessors) and publish ready. The deferred publish
// also runs when the spec panics — with empty preds and a poisoned join
// — so a slot can never be left at nodeIniting, where same-graph racers
// would spin forever; the panic then unwinds to the worker's rescue
// boundary and fails the owning graph.
func (a *nodeArena) fill(n *Node, k Key, cur uint32) {
	done := false
	defer func() {
		if !done {
			n.preds = nil
			n.join.Store(poisonedJoin)
		}
		// Defensive: markComputed leaves retired slots truncated, but a
		// node the previous run somehow never computed must not leak
		// successors into this epoch.
		n.succs = n.succs[:0]
		a.created.Add(1)
		n.state.Store(cur | nodeReady)
	}()
	n.preds = a.spec.Predecessors(k)
	n.join.Store(int32(len(n.preds)))
	done = true
}

func (a *nodeArena) get(k Key) (*Node, bool) {
	if k < 0 || int64(k) >= int64(len(a.nodes)) {
		return nil, false
	}
	n := &a.nodes[a.layout.index[k]]
	v := n.state.Load()
	if v&epochMask != a.epoch || nodePhase(v) < nodeReady {
		return nil, false
	}
	return n, true
}

func (a *nodeArena) count() int { return int(a.created.Load()) }

// pendingKeys lists created-but-never-computed nodes of the current
// epoch, sorted. Stall-sweep only (quiescent), so the O(bound) scan is
// off every hot path.
func (a *nodeArena) pendingKeys() []Key {
	var keys []Key
	for i := range a.nodes {
		n := &a.nodes[i]
		v := n.state.Load()
		if v&epochMask == a.epoch &&
			nodePhase(v) != nodeAbsent && nodePhase(v) != nodeComputed {
			keys = append(keys, n.key)
		}
	}
	slices.Sort(keys)
	return keys
}

// reset retires every node by bumping the arena's epoch — O(1), no slot
// clearing, no allocation. The 25-bit stamp wraps once per 2^25 resets; on
// wrap the (then-ambiguous) slot words are cleared the slow way, so a
// stamp can never alias a run thirty-three million executes old.
func (a *nodeArena) reset() {
	e := (a.epoch + epochUnit) & epochMask
	if e == 0 {
		for i := range a.nodes {
			a.nodes[i].state.Store(0)
		}
	}
	a.epoch = e
	a.created.Store(0)
}

// NodeStore is an exported handle to a node table outside any engine run
// — the hook the harness's deterministic alloc ablation and external
// benchmarks use to measure the backends' create-or-get paths directly.
// The engine builds its own table per run; a NodeStore never feeds one.
type NodeStore struct{ nt nodeTable }

// NewNodeStore builds a standalone node table for spec with the given
// backend (NodeTableAuto resolves exactly as a run would). Unlike Run
// there is no withDefaults step here, so workers is validated directly.
func NewNodeStore(spec Spec, workers int, backend NodeTableBackend) (*NodeStore, error) {
	if workers < 1 {
		return nil, fmt.Errorf("core: NewNodeStore needs workers >= 1, got %d", workers)
	}
	resolved, err := ResolveNodeTable(spec, backend)
	if err != nil {
		return nil, err
	}
	if resolved == NodeTableDense {
		l := newKeyLayout(spec, KeyBoundOf(spec), workers)
		return &NodeStore{nt: newNodeArena(spec, &l)}, nil
	}
	return &NodeStore{nt: newNodeMap(spec)}, nil
}

// GetOrCreate returns the node for k, creating it if absent; the boolean
// reports creation.
func (s *NodeStore) GetOrCreate(k Key) (*Node, bool) { return s.nt.getOrCreate(k) }

// Count returns the number of created nodes.
func (s *NodeStore) Count() int { return s.nt.count() }
