package sched

// distinctColor is grouping-scratch bookkeeping for one color observed in
// a key or node list: its first-appearance index fixes the group order,
// and off doubles as the placement cursor during the scatter pass.
type distinctColor struct {
	color int
	count int32
	off   int32
}

// Grouper partitions a spawn's keys or nodes into color groups, in
// first-appearance order of colors (deterministic, so the simulator's
// schedules replay exactly). It is reusable per-worker scratch: a
// color-indexed array with epoch stamps (O(1) reset), the per-element
// group indices recorded by the counting pass, and the distinct-color
// list. Only the scratch is reused — the group and key/node slices a
// grouping emits always escape into deque items and are freshly
// allocated per call. A Grouper is owned by one worker.
type Grouper[K, N any] struct {
	colorIdx []int32 // color -> index into distinct, valid iff stamp[c] == cur
	stamp    []uint32
	cur      uint32
	colored  bool
	elemGI   []int32 // per-element group index recorded during the count pass
	distinct []distinctColor
}

// NewGrouper returns grouping scratch for nworkers colors. With colored
// false (plain Nabbit) every spawn becomes one group in the spec's order.
func NewGrouper[K, N any](nworkers int, colored bool) Grouper[K, N] {
	return Grouper[K, N]{
		colorIdx: make([]int32, nworkers),
		stamp:    make([]uint32, nworkers),
		colored:  colored,
	}
}

// begin starts a grouping pass.
func (g *Grouper[K, N]) begin() {
	g.cur++
	if g.cur == 0 {
		// Epoch counter wrapped: invalidate all stamps the slow way once
		// every 2^32 groupings.
		for i := range g.stamp {
			g.stamp[i] = 0
		}
		g.cur = 1
	}
	g.elemGI = g.elemGI[:0]
	g.distinct = g.distinct[:0]
}

// note records one element of color c. Colors outside
// [0, len(colorIdx)) — possible only under the invalid-coloring ablation
// — fall back to a linear scan of the distinct list.
func (g *Grouper[K, N]) note(c int) {
	gi := -1
	if c >= 0 && c < len(g.colorIdx) {
		if g.stamp[c] == g.cur {
			gi = int(g.colorIdx[c])
		}
	} else {
		for i := range g.distinct {
			if g.distinct[i].color == c {
				gi = i
				break
			}
		}
	}
	if gi < 0 {
		gi = len(g.distinct)
		g.distinct = append(g.distinct, distinctColor{color: c})
		if c >= 0 && c < len(g.colorIdx) {
			g.colorIdx[c] = int32(gi)
			g.stamp[c] = g.cur
		}
	}
	g.distinct[gi].count++
	g.elemGI = append(g.elemGI, int32(gi))
}

// offsets converts the distinct counts into placement cursors and reports
// the group count.
func (g *Grouper[K, N]) offsets() int {
	off := int32(0)
	for i := range g.distinct {
		g.distinct[i].off = off
		off += g.distinct[i].count
	}
	return len(g.distinct)
}

// scatter copies elems into a fresh array in group order; afterwards each
// distinct color's group is backing[off-count:off].
func scatter[K, N, E any](g *Grouper[K, N], elems []E) []E {
	backing := make([]E, len(elems))
	for j, e := range elems {
		d := &g.distinct[g.elemGI[j]]
		backing[d.off] = e
		d.off++
	}
	return backing
}

// GroupKeys partitions owner's predecessor keys by color (color names a
// key's color) and returns the ready-to-run predecessor item. When colored scheduling is off — or only
// one color occurs — everything lands in a single inline group aliasing
// the input keys (predecessor lists are immutable, so aliasing is free),
// and the call allocates nothing.
//
//nabbit:alloc-ok emitted group slices escape into deque items by contract; bounded by the ExecuteReuse gate
func (g *Grouper[K, N]) GroupKeys(owner N, keys []K, color func(K) int) Item[K, N] {
	if !g.colored || len(keys) <= 1 {
		c := 0
		if len(keys) > 0 {
			c = color(keys[0])
		}
		return Item[K, N]{Owner: owner, Single: Group[K, N]{Color: c, Keys: keys}}
	}
	g.begin()
	for _, k := range keys {
		g.note(color(k))
	}
	if g.offsets() == 1 {
		return Item[K, N]{Owner: owner, Single: Group[K, N]{Color: g.distinct[0].color, Keys: keys}}
	}
	backing := scatter(g, keys)
	groups := make([]Group[K, N], len(g.distinct))
	for i, d := range g.distinct {
		groups[i] = Group[K, N]{Color: d.color, Keys: backing[d.off-d.count : d.off : d.off]}
	}
	return Item[K, N]{Owner: owner, Groups: groups}
}

// GroupNodes partitions ready nodes by color (color names a node's
// color) and returns the successor-work item. The input may be the caller's reusable ready
// scratch, so unlike GroupKeys the output never aliases it: nodes are
// always copied into a fresh backing array.
//
//nabbit:alloc-ok emitted group slices escape into deque items by contract; bounded by the ExecuteReuse gate
func (g *Grouper[K, N]) GroupNodes(nodes []N, color func(N) int) Item[K, N] {
	if g.colored && len(nodes) > 1 {
		g.begin()
		for _, n := range nodes {
			g.note(color(n))
		}
		if g.offsets() > 1 {
			backing := scatter(g, nodes)
			groups := make([]Group[K, N], len(g.distinct))
			for i, d := range g.distinct {
				groups[i] = Group[K, N]{Color: d.color, Nodes: backing[d.off-d.count : d.off : d.off]}
			}
			return Item[K, N]{Groups: groups}
		}
	}
	c := 0
	if len(nodes) > 0 {
		c = color(nodes[0])
	}
	cp := make([]N, len(nodes))
	copy(cp, nodes)
	return Item[K, N]{Single: Group[K, N]{Color: c, Nodes: cp}}
}
