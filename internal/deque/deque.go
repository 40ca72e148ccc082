package deque

import "nabbitc/internal/colorset"

// StealOutcome describes the result of a steal attempt.
type StealOutcome int

const (
	// StealOK: one or more items were stolen.
	StealOK StealOutcome = iota
	// StealEmpty: the victim deque had no items.
	StealEmpty
	// StealMiss: the victim's top item does not intersect the steal's
	// gate (gated steals only).
	StealMiss
	// StealAbort: the attempt lost a race and should be retried
	// elsewhere (lock-free implementations only).
	StealAbort
)

// String returns a short name for the outcome.
func (o StealOutcome) String() string {
	switch o {
	case StealOK:
		return "ok"
	case StealEmpty:
		return "empty"
	case StealMiss:
		return "miss"
	case StealAbort:
		return "abort"
	default:
		return "unknown"
	}
}

// BatchSize returns how many items a batched steal takes from a deque of
// n items: half of it rounded up, capped at max (max <= 0 means
// uncapped), and at least 1. The simulator's deque mirror calls it too,
// so both machines size batches by one rule.
func BatchSize(n, max int) int {
	k := (n + 1) / 2
	if max > 0 && k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Entry is a deque element: a work item plus the set of task colors
// reachable inside it.
type Entry[T any] struct {
	Value  T
	Colors colorset.Set
}

// Queue is the owner/thief protocol shared by the deque implementations.
// PushBottom and PopBottom may be called only by the owning worker; the
// steal methods may be called by any worker concurrently.
//
// A steal is one primitive: a gate on the oldest item, then a take of one
// or more items. Steal is that primitive; StealTop is its ungated
// single-item case, returned by value for the callers that want no
// buffer.
type Queue[T any] interface {
	// PushBottom adds an item at the bottom (owner only).
	PushBottom(e Entry[T])
	// PopBottom removes and returns the most recently pushed item
	// (owner only).
	PopBottom() (Entry[T], bool)
	// StealTop removes and returns the oldest item regardless of color.
	StealTop() (Entry[T], StealOutcome)
	// Steal removes the oldest item, and with max != 1 a batch of the
	// oldest items, appending them to buf oldest first. It returns the
	// extended buf; on any outcome but StealOK buf comes back unchanged.
	//
	// The gate decides whether to steal at all. A nil gate takes any
	// item. A non-nil gate must intersect the oldest item's colors, or
	// the steal reports StealMiss and takes nothing; its capacity must
	// match the entries' color sets (both are sized to the worker count).
	// Items taken after the oldest are not gated: once a thief has paid
	// for the visit, the rest of the batch rides along.
	//
	// max == 1 takes one item. Otherwise the steal takes a batch in one
	// visit, capped at max when max > 1 and uncapped when max <= 0. The
	// baseline batch is BatchSize(n, max) items. Chase–Lev takes a batch
	// one claim CAS at a time and may return fewer; Block claims whole
	// runs of a sealed block with one CAS and may return more, up to max
	// or the block's remainder when uncapped. See the package comment.
	Steal(gate *colorset.Set, max int, buf []Entry[T]) ([]Entry[T], StealOutcome)
	// Len returns the current number of items. It is advisory under
	// concurrency.
	Len() int
	// SetWake installs a hook invoked after each PushBottom has published
	// its item — the engine's "work appeared" signal for waking parked
	// idle workers. Install before any concurrent use (nil clears it);
	// the hook must be cheap and must not touch the deque.
	SetWake(fn func())
	// Grows returns how many times the deque's buffer has grown since
	// construction — the growth-churn signal the engine sizes initial
	// capacities to eliminate. Owner-written; read it only when the owner
	// is quiescent (e.g. after a run).
	Grows() int64
}
