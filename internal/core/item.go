package core

import "nabbitc/internal/sched"

// item is a deque entry: a morphing continuation (sched.Item, whose
// grouping and splitting are shared with the simulator) plus the graph it
// belongs to. With many graphs in flight, workers interleave items of
// different runs in one deque, and the run pointer carries each item's
// node table and completion state along with it.
type item struct {
	run *graphRun
	sched.Item[Key, *Node]
}
