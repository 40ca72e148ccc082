package sched

import "nabbitc/internal/colorset"

// The paper's spawn_colors/spawn_nodes recursion reorganizes a spawn of
// many nodes so that the executing worker descends into the half of the
// color groups containing its own color, while the other half is left
// behind as a stealable continuation whose color set is advertised to the
// runtime (cilkrts_set_next_colors). Go has no continuation stealing, so
// that continuation is reified as a deque item: an Item *is* the pending
// "spawn_colors(second_half)" call, carrying the remaining color groups
// and the union of their colors for the thief's O(1) check.
//
// An item is one of two shapes, told apart by its groups:
//   - predecessor work: the groups hold predecessor *keys* of Owner, each
//     to be resolved against the node table;
//   - successor work: the groups hold ready *nodes*, each to be computed
//     directly (Owner is the zero value).
//
// Binary splitting produces a torrent of one-group continuations, so an
// item stores a single group inline (Single, authoritative when Groups is
// nil): the spawn hot path never allocates a one-element group slice,
// and the item's color mask is that group's color — computed in O(1)
// instead of rescanning groups. Multi-group items carry sub-slices of a
// grouping's freshly allocated groups array.
//
// K is the machine's task key type and N its node handle.

// Group is a set of same-colored work: either predecessor keys (Nodes
// nil) or ready nodes (Keys nil).
type Group[K, N any] struct {
	Color int
	Keys  []K
	Nodes []N
}

// Size returns the number of leaf work units in the group.
func (g Group[K, N]) Size() int {
	if g.Keys != nil {
		return len(g.Keys)
	}
	return len(g.Nodes)
}

// Item is a reified spawn_colors/spawn_nodes continuation. When Groups is
// nil the item holds exactly the inline Single group (possibly empty, for
// the zero item); otherwise Groups holds at least two groups.
type Item[K, N any] struct {
	Owner  N // the node whose predecessors Keys lists; zero for successor work
	Single Group[K, N]
	Groups []Group[K, N]
}

// Size returns the number of leaf work units in the item.
func (it Item[K, N]) Size() int {
	if it.Groups == nil {
		return it.Single.Size()
	}
	total := 0
	for _, g := range it.Groups {
		total += g.Size()
	}
	return total
}

// Colors returns the color mask the item advertises to thieves, sized for
// nworkers colors. A single-group item advertises its group's color in
// O(1); a multi-group item the union of its groups' colors. Colors
// outside the worker range are skipped: no worker can prefer them, so
// advertising them is pointless (and with an invalid coloring, Table III,
// every mask stays empty — all colored steals miss, as intended).
func (it *Item[K, N]) Colors(nworkers int) colorset.Set {
	if it.Groups != nil {
		return groupColors(it.Groups, nworkers)
	}
	s := colorset.New(nworkers) //nabbit:alloc-ok colorset spill, only beyond InlineColors workers
	if c := it.Single.Color; c >= 0 && c < nworkers {
		s.Add(c)
	}
	return s
}

// groupColors is Colors for a multi-group item.
func groupColors[K, N any](groups []Group[K, N], nworkers int) colorset.Set {
	s := colorset.New(nworkers) //nabbit:alloc-ok colorset spill, only beyond InlineColors workers
	for _, g := range groups {
		if g.Color >= 0 && g.Color < nworkers {
			s.Add(g.Color)
		}
	}
	return s
}

// Split performs one step of the morphing-continuation interpreter for a
// worker of the given color: it shrinks it in place to the half the
// worker descends into and stores the other half in rest, which the
// caller must push as a stealable continuation. It reports false,
// changing nothing, once it is a leaf (one unit of work) or empty.
//
// While it holds several color groups the step is spawn_colors: halve
// the groups, and under colored scheduling descend into the half that
// holds the worker's color when only the second half does. With one
// group left it is spawn_nodes: halve the keys or nodes, keeping the
// first half. Calling Split until it reports false and then resolving
// the remaining leaf is the whole interpreter.
func (it *Item[K, N]) Split(color int, colored bool, rest *Item[K, N]) bool {
	if len(it.Groups) > 1 {
		mid := len(it.Groups) / 2
		first, second := it.Groups[:mid], it.Groups[mid:]
		if colored && containsColor(second, color) && !containsColor(first, color) {
			first, second = second, first
		}
		it.setGroups(first)
		*rest = Item[K, N]{Owner: it.Owner}
		rest.setGroups(second)
		return true
	}
	g := &it.Single
	n := g.Size()
	if n <= 1 {
		return false
	}
	mid := n / 2
	*rest = Item[K, N]{Owner: it.Owner, Single: Group[K, N]{Color: g.Color}}
	if g.Keys != nil {
		rest.Single.Keys = g.Keys[mid:]
		g.Keys = g.Keys[:mid]
	} else {
		rest.Single.Nodes = g.Nodes[mid:]
		g.Nodes = g.Nodes[:mid]
	}
	return true
}

// setGroups stores gs in it, using the inline form for a single group.
func (it *Item[K, N]) setGroups(gs []Group[K, N]) {
	if len(gs) == 1 {
		it.Single, it.Groups = gs[0], nil
		return
	}
	it.Groups = gs
}

// containsColor reports whether any group has the given color.
func containsColor[K, N any](groups []Group[K, N], color int) bool {
	for _, g := range groups {
		if g.Color == color {
			return true
		}
	}
	return false
}
