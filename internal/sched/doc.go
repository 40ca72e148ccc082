// Package sched holds the scheduling decisions that the real engine
// (internal/core) and the simulator (internal/sim) both make, so that
// each decision is defined once:
//
//   - the morphing-continuation item and its color groups, with the
//     color mask an item advertises to thieves (Item, Group);
//   - color grouping of a spawn (Grouper, GroupKeys, GroupNodes);
//   - one step of the spawn_colors/spawn_nodes split (Item.Split);
//   - victim choice and the steal-tier walk: which tier a probe belongs
//     to, which workers it may pick from, and whether it takes a batch
//     (Plan, Tier).
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
