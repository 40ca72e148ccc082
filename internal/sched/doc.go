// Package sched holds the scheduling decisions that the real engine
// (internal/core) and the simulator (internal/sim) both make, so that
// each decision is defined once:
//
//   - the morphing-continuation item and its color groups, with the
//     color mask an item advertises to thieves (Item, Group);
//   - color grouping of a spawn (Grouper, GroupKeys, GroupNodes);
//   - one step of the spawn_colors/spawn_nodes split (Item.Split), and
//     the grain at which a predecessor-key group stops splitting (Grain);
//   - victim choice and the steal-tier walk: which tier a probe belongs
//     to, which workers it may pick from, and whether it takes a batch
//     (Plan, Tier).
//
// Predecessor keys are split the way Cilk Plus splits a cilk_for: a
// group of n keys on P workers is halved only while it holds more than
// Grain(n, P) = max(1, min(2048, ⌈n/8P⌉)) keys; ready-node groups still
// split down to one node. Each machine then resolves a leaf of keys with
// the same scan (resolveKeys in core and in sim): keys whose predecessor
// already exists are settled inline, and at the first key whose
// predecessor the worker creates, the unresolved rest of the leaf is
// pushed back as one stealable item before the worker descends into the
// new node. That keeps every sibling stealable and bounds a leaf's pushes
// to one per node it creates.
//
// Each machine keeps only what it alone owns: core the atomics, the node
// table, the concurrent deques and the run state; sim the virtual clock,
// its event queue and its single-threaded deque model. Because both
// machines call the same functions here, "the simulator models the
// engine" is shared code rather than two copies kept in step by hand.
//
// The package is pure: no atomics, no clocks, no goroutines, and it
// imports neither core nor sim. The directive below opts it into
// nabbitvet's nodeterminism analyzer, which keeps it that way — any
// nondeterminism here would break the simulator's byte-identical
// schedules.
//
//nabbit:deterministic
package sched
