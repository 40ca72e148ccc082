package deque

import (
	"sync"

	"nabbitc/internal/colorset"
)

// Mutex is a lock-protected growable ring-buffer deque. It is the engine
// default: the owner's push/pop and a thief's steal each take the lock
// briefly, and per-deque contention in work stealing is low by design.
type Mutex[T any] struct {
	mu    sync.Mutex
	buf   []Entry[T]
	head  int // index of the top (oldest) element
	n     int // number of elements
	grows int64
	wake  func() // post-push hook; set before concurrent use
}

// NewMutex returns an empty deque with the given initial capacity hint.
func NewMutex[T any](capacity int) *Mutex[T] {
	if capacity < 4 {
		capacity = 4
	}
	return &Mutex[T]{buf: make([]Entry[T], capacity)}
}

//nabbit:alloc-ok amortized growth path, counted by Grows()
func (d *Mutex[T]) grow() {
	// The full ring wraps at most once: move it as two bulk copies rather
	// than a per-element modulo loop.
	nb := make([]Entry[T], len(d.buf)*2)
	n := copy(nb, d.buf[d.head:])
	copy(nb[n:], d.buf[:d.head])
	d.buf = nb
	d.head = 0
	d.grows++
}

// PushBottom adds an item at the bottom (newest end).
//
//nabbit:noalloc
func (d *Mutex[T]) PushBottom(e Entry[T]) {
	d.mu.Lock()
	if d.n == len(d.buf) {
		d.grow() //nabbit:alloc-ok inlined amortized growth
	}
	d.buf[(d.head+d.n)%len(d.buf)] = e
	d.n++
	d.mu.Unlock()
	// Outside the lock: the item is already stealable, and the hook may
	// do its own (cheap) synchronization.
	if d.wake != nil {
		d.wake()
	}
}

// SetWake installs the post-push hook.
func (d *Mutex[T]) SetWake(fn func()) { d.wake = fn }

// PopBottom removes the newest item.
//
//nabbit:noalloc
func (d *Mutex[T]) PopBottom() (Entry[T], bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		var zero Entry[T]
		return zero, false
	}
	d.n--
	i := (d.head + d.n) % len(d.buf)
	e := d.buf[i]
	d.buf[i] = Entry[T]{} // release references
	d.mu.Unlock()
	return e, true
}

// StealTop removes the oldest item.
//
//nabbit:noalloc
func (d *Mutex[T]) StealTop() (Entry[T], StealOutcome) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		var zero Entry[T]
		return zero, StealEmpty
	}
	e := d.takeTopLocked()
	d.mu.Unlock()
	return e, StealOK
}

// Steal removes the oldest item, or a batch of BatchSize(n, max) oldest
// items, if the oldest passes gate. The batch is taken under one lock
// acquisition, so unlike Chase–Lev it is a true atomic batch.
//
//nabbit:noalloc
func (d *Mutex[T]) Steal(gate *colorset.Set, max int, buf []Entry[T]) ([]Entry[T], StealOutcome) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return buf, StealEmpty
	}
	if gate != nil && !d.buf[d.head].Colors.Intersects(*gate) {
		d.mu.Unlock()
		return buf, StealMiss
	}
	for k := BatchSize(d.n, max); k > 0; k-- {
		buf = append(buf, d.takeTopLocked())
	}
	d.mu.Unlock()
	return buf, StealOK
}

// takeTopLocked removes the oldest item; the caller holds the lock and
// guarantees the deque is not empty.
func (d *Mutex[T]) takeTopLocked() Entry[T] {
	e := d.buf[d.head]
	d.buf[d.head] = Entry[T]{}
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return e
}

// Len returns the number of items.
func (d *Mutex[T]) Len() int {
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	return n
}

// Grows returns how many times the ring buffer has grown.
func (d *Mutex[T]) Grows() int64 {
	d.mu.Lock()
	g := d.grows
	d.mu.Unlock()
	return g
}
