package deque

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nabbitc/internal/colorset"
	"nabbitc/internal/xrand"
)

const testColors = 16

func entry(v int, colors ...int) Entry[int] {
	return Entry[int]{Value: v, Colors: colorset.Of(testColors, colors...)}
}

// gate returns a steal gate admitting the given colors.
func gate(colors ...int) *colorset.Set {
	g := colorset.Of(testColors, colors...)
	return &g
}

// stealOne is a gated single-item steal.
func stealOne(q Queue[int], g *colorset.Set) (Entry[int], StealOutcome) {
	ents, out := q.Steal(g, 1, nil)
	if out != StealOK {
		return Entry[int]{}, out
	}
	return ents[0], out
}

// queues returns one fresh instance of every implementation.
func queues() map[string]Queue[int] {
	return map[string]Queue[int]{
		"mutex":    NewMutex[int](4),
		"chaselev": NewChaseLev[int](4),
		"block":    NewBlock[int](4),
	}
}

func TestEmpty(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			if _, ok := q.PopBottom(); ok {
				t.Fatal("PopBottom on empty returned ok")
			}
			if _, out := q.StealTop(); out != StealEmpty {
				t.Fatalf("StealTop on empty = %v, want empty", out)
			}
			if _, out := stealOne(q, gate(1)); out != StealEmpty {
				t.Fatalf("gated steal on empty = %v, want empty", out)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d, want 0", q.Len())
			}
		})
	}
}

func TestLIFOOwner(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d, want 100", q.Len())
			}
			for i := 99; i >= 0; i-- {
				e, ok := q.PopBottom()
				if !ok || e.Value != i {
					t.Fatalf("PopBottom = %v,%v, want %d", e.Value, ok, i)
				}
			}
		})
	}
}

func TestFIFOThief(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				q.PushBottom(entry(i))
			}
			for i := 0; i < 50; i++ {
				e, out := q.StealTop()
				if out != StealOK || e.Value != i {
					t.Fatalf("StealTop = %v,%v, want %d", e.Value, out, i)
				}
			}
			if _, out := q.StealTop(); out != StealEmpty {
				t.Fatal("deque should be empty")
			}
		})
	}
}

func TestColoredStealMissAndHit(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(1, 3, 5))
			q.PushBottom(entry(2, 7))
			// Top item has colors {3,5}: thief of color 7 misses.
			if _, out := stealOne(q, gate(7)); out != StealMiss {
				t.Fatalf("steal color 7 = %v, want miss", out)
			}
			// Thief of color 5 hits and takes the top item.
			e, out := stealOne(q, gate(5))
			if out != StealOK || e.Value != 1 {
				t.Fatalf("steal color 5 = %v,%v, want value 1", e.Value, out)
			}
			// Now the top is {7}.
			e, out = stealOne(q, gate(7))
			if out != StealOK || e.Value != 2 {
				t.Fatalf("steal color 7 = %v,%v, want value 2", e.Value, out)
			}
		})
	}
}

func TestColoredStealDoesNotDisturb(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(1, 2))
			for i := 0; i < 10; i++ {
				if _, out := stealOne(q, gate(9)); out != StealMiss {
					t.Fatalf("attempt %d = %v, want miss", i, out)
				}
			}
			if q.Len() != 1 {
				t.Fatalf("Len = %d after misses, want 1", q.Len())
			}
			e, ok := q.PopBottom()
			if !ok || e.Value != 1 {
				t.Fatal("owner lost its item to failed colored steals")
			}
		})
	}
}

func TestInterleavedPushPopSteal(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(1))
			q.PushBottom(entry(2))
			q.PushBottom(entry(3))
			if e, out := q.StealTop(); out != StealOK || e.Value != 1 {
				t.Fatalf("steal got %v", e.Value)
			}
			if e, ok := q.PopBottom(); !ok || e.Value != 3 {
				t.Fatalf("pop got %v", e.Value)
			}
			q.PushBottom(entry(4))
			if e, out := q.StealTop(); out != StealOK || e.Value != 2 {
				t.Fatalf("steal got %v", e.Value)
			}
			if e, ok := q.PopBottom(); !ok || e.Value != 4 {
				t.Fatalf("pop got %v", e.Value)
			}
			if _, ok := q.PopBottom(); ok {
				t.Fatal("deque should be empty")
			}
		})
	}
}

func TestGrowth(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			const n = 10000
			for i := 0; i < n; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			if q.Len() != n {
				t.Fatalf("Len = %d, want %d", q.Len(), n)
			}
			// Alternate steals and pops; verify the multiset survives.
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				var e Entry[int]
				if i%2 == 0 {
					var out StealOutcome
					e, out = q.StealTop()
					if out != StealOK {
						t.Fatalf("steal %d failed: %v", i, out)
					}
				} else {
					var ok bool
					e, ok = q.PopBottom()
					if !ok {
						t.Fatalf("pop %d failed", i)
					}
				}
				if seen[e.Value] {
					t.Fatalf("value %d seen twice", e.Value)
				}
				seen[e.Value] = true
			}
		})
	}
}

// Property: any sequence of operations keeps the deque consistent with a
// reference slice model (single-threaded).
func TestQuickModelEquivalence(t *testing.T) {
	impls := []struct {
		name string
		mk   func() Queue[int]
	}{
		{"mutex", func() Queue[int] { return NewMutex[int](4) }},
		{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
		{"block", func() Queue[int] { return NewBlock[int](4) }},
	}
	for _, impl := range impls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			f := func(ops []uint8) bool {
				q := impl.mk()
				var model []Entry[int]
				next := 0
				for _, op := range ops {
					switch op % 4 {
					case 0, 1: // push (weighted so deques fill up)
						e := entry(next, next%testColors)
						next++
						q.PushBottom(e)
						model = append(model, e)
					case 2: // pop bottom
						e, ok := q.PopBottom()
						if ok != (len(model) > 0) {
							return false
						}
						if ok {
							want := model[len(model)-1]
							model = model[:len(model)-1]
							if e.Value != want.Value {
								return false
							}
						}
					case 3: // steal top
						e, out := q.StealTop()
						if (out == StealOK) != (len(model) > 0) {
							return false
						}
						if out == StealOK {
							want := model[0]
							model = model[1:]
							if e.Value != want.Value {
								return false
							}
						}
					}
				}
				return q.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Concurrent stress: one owner pushing/popping, many thieves stealing.
// Every pushed value must be consumed exactly once.
func TestConcurrentStress(t *testing.T) {
	impls := []struct {
		name string
		mk   func() Queue[int]
	}{
		{"mutex", func() Queue[int] { return NewMutex[int](4) }},
		{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
		{"block", func() Queue[int] { return NewBlock[int](4) }},
	}
	for _, impl := range impls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			const (
				total   = 50000
				thieves = 6
			)
			q := impl.mk()
			var consumed [total]atomic.Int32
			var taken atomic.Int64
			done := make(chan struct{})

			var wg sync.WaitGroup
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					r := xrand.NewWorker(99, id)
					var buf []Entry[int]
					for {
						var e Entry[int]
						var out StealOutcome
						if r.Intn(2) == 0 {
							buf, out = q.Steal(gate(r.Intn(testColors)), 1, buf[:0])
							if out == StealOK {
								e = buf[0]
							}
						} else {
							e, out = q.StealTop()
						}
						if out == StealOK {
							consumed[e.Value].Add(1)
							taken.Add(1)
						}
						select {
						case <-done:
							// Drain whatever remains.
							for {
								e, out := q.StealTop()
								if out != StealOK {
									return
								}
								consumed[e.Value].Add(1)
								taken.Add(1)
							}
						default:
						}
					}
				}(th)
			}

			// Owner: pushes everything, popping intermittently.
			r := xrand.New(7)
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%testColors))
				if r.Intn(3) == 0 {
					if e, ok := q.PopBottom(); ok {
						consumed[e.Value].Add(1)
						taken.Add(1)
					}
				}
			}
			// Owner drains its own deque.
			for {
				e, ok := q.PopBottom()
				if !ok {
					break
				}
				consumed[e.Value].Add(1)
				taken.Add(1)
			}
			close(done)
			wg.Wait()
			// Final drain by the main goroutine for anything missed
			// between the owner's drain and thief shutdown.
			for {
				e, out := q.StealTop()
				if out != StealOK {
					break
				}
				consumed[e.Value].Add(1)
				taken.Add(1)
			}

			if got := taken.Load(); got != total {
				t.Fatalf("consumed %d items, want %d", got, total)
			}
			for i := 0; i < total; i++ {
				if c := consumed[i].Load(); c != 1 {
					t.Fatalf("value %d consumed %d times", i, c)
				}
			}
		})
	}
}

// Colored concurrent stress: thieves only steal their own color and must
// never receive an item whose mask excludes that color.
func TestConcurrentColoredNoFalseSteal(t *testing.T) {
	impls := []struct {
		name string
		mk   func() Queue[int]
	}{
		{"mutex", func() Queue[int] { return NewMutex[int](4) }},
		{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
		{"block", func() Queue[int] { return NewBlock[int](4) }},
	}
	for _, impl := range impls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			const total = 20000
			q := impl.mk()
			done := make(chan struct{})
			var wg sync.WaitGroup
			var bad atomic.Int64
			for th := 0; th < 4; th++ {
				wg.Add(1)
				go func(color int) {
					defer wg.Done()
					g := gate(color)
					var buf []Entry[int]
					for {
						var out StealOutcome
						buf, out = q.Steal(g, 1, buf[:0])
						if out == StealOK && !buf[0].Colors.Has(color) {
							bad.Add(1)
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}(th)
			}
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%8)) // colors 0..7, thieves 0..3
			}
			for {
				if _, ok := q.PopBottom(); !ok {
					break
				}
			}
			close(done)
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d colored steals returned wrong-color items", bad.Load())
			}
		})
	}
}

// TestStealTopMasked pins the multi-color gate: a steal is admitted when
// the gate intersects the oldest item's colors, not only when it names
// one of them exactly.
func TestStealTopMasked(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			if _, out := stealOne(q, gate(1)); out != StealEmpty {
				t.Fatalf("masked steal on empty = %v, want empty", out)
			}
			q.PushBottom(entry(1, 3, 5))
			q.PushBottom(entry(2, 7))
			// Mask {6,7} misses the top {3,5}.
			if _, out := stealOne(q, gate(6, 7)); out != StealMiss {
				t.Fatalf("disjoint mask = %v, want miss", out)
			}
			if q.Len() != 2 {
				t.Fatalf("Len = %d after miss, want 2", q.Len())
			}
			// Mask {5,9} intersects {3,5}.
			e, out := stealOne(q, gate(5, 9))
			if out != StealOK || e.Value != 1 {
				t.Fatalf("intersecting mask = %v,%v, want value 1", e.Value, out)
			}
		})
	}
}

// TestStealHalfSemantics pins the ungated batch sizes of the per-item
// contract: ceil(n/2) items, capped by max, at least one.
func TestStealHalfSemantics(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			if _, out := q.Steal(nil, 4, nil); out != StealEmpty {
				t.Fatalf("batched steal on empty = %v, want empty", out)
			}
			for i := 0; i < 10; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			// Half of 10 is 5, capped at 3.
			ents, out := q.Steal(nil, 3, nil)
			if out != StealOK || len(ents) != 3 {
				t.Fatalf("batched steal = %d items,%v, want 3,ok", len(ents), out)
			}
			for i, e := range ents {
				if e.Value != i {
					t.Fatalf("batch[%d] = %d, want %d (oldest first)", i, e.Value, i)
				}
			}
			// 7 remain; uncapped takes ceil(7/2) = 4.
			ents, out = q.Steal(nil, 0, nil)
			if out != StealOK || len(ents) != 4 {
				t.Fatalf("uncapped batched steal = %d items,%v, want 4,ok", len(ents), out)
			}
			if q.Len() != 3 {
				t.Fatalf("Len = %d, want 3", q.Len())
			}
			// A single remaining item is still stealable as a "half".
			q2 := queues()[name]
			q2.PushBottom(entry(42, 1))
			ents, out = q2.Steal(nil, 8, nil)
			if out != StealOK || len(ents) != 1 || ents[0].Value != 42 {
				t.Fatalf("batched steal of 1 = %v,%v", ents, out)
			}
		})
	}
}

// TestStealHalfColored pins that a gated batch gates only its first item:
// a miss takes nothing, a hit drags later items of other colors along.
func TestStealHalfColored(t *testing.T) {
	for name, q := range queues() {
		t.Run(name, func(t *testing.T) {
			q.PushBottom(entry(0, 3))
			q.PushBottom(entry(1, 9))
			q.PushBottom(entry(2, 9))
			q.PushBottom(entry(3, 9))
			// Top has color 3: thief of color 9 misses, nothing taken.
			if _, out := q.Steal(gate(9), 4, nil); out != StealMiss {
				t.Fatalf("gated batched steal = %v, want miss", out)
			}
			if q.Len() != 4 {
				t.Fatalf("Len = %d after miss, want 4", q.Len())
			}
			// Thief of color 3 hits and drags half the deque along, even
			// though the later items are color 9.
			ents, out := q.Steal(gate(3), 4, nil)
			if out != StealOK || len(ents) != 2 {
				t.Fatalf("gated batched steal = %d items,%v, want 2,ok", len(ents), out)
			}
			if ents[0].Value != 0 || ents[1].Value != 1 {
				t.Fatalf("batch = %v, want values 0,1", ents)
			}
		})
	}
}

// TestStealContract checks one sequential Steal per case across every
// substrate: gate × max × fill, with fills on both sides of BlockSize.
// Entry i carries color i%testColors, so the oldest item has color 0 and
// the items behind it carry colors no gate but nil and the socket mask
// admit — a batch that took them proves only the oldest item is gated.
//
// The mutex deque is checked against the per-item rule (BatchSize oldest
// items) and is the oracle for Chase–Lev. Block follows the per-item rule
// while the oldest block is the owner's unsealed tail (fill <= BlockSize)
// and the sealed-block rule otherwise: the whole block, capped by max.
func TestStealContract(t *testing.T) {
	gates := []struct {
		name string
		g    *colorset.Set
		hit  bool
	}{
		{"nil", nil, true},
		{"own", gate(0), true},
		{"socket", gate(0, 1, 2, 3), true},
		{"disjoint", gate(12, 13), false},
	}
	fills := []int{0, 1, 7, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 5}
	// run fills a fresh q, makes one Steal into a buffer holding a -1
	// sentinel, and returns what it took and what the deque kept, oldest
	// first.
	run := func(t *testing.T, q Queue[int], fill int, g *colorset.Set, max int) (taken, kept []int, out StealOutcome) {
		for i := 0; i < fill; i++ {
			q.PushBottom(entry(i, i%testColors))
		}
		buf, out := q.Steal(g, max, []Entry[int]{{Value: -1}})
		if buf[0].Value != -1 {
			t.Fatalf("Steal overwrote the caller's buffer prefix: %v", buf)
		}
		for _, e := range buf[1:] {
			taken = append(taken, e.Value)
		}
		if got, want := q.Len(), fill-len(taken); got != want {
			t.Fatalf("Len = %d after taking %d of %d, want %d", got, len(taken), fill, want)
		}
		for {
			e, o := q.StealTop()
			if o != StealOK {
				break
			}
			kept = append(kept, e.Value)
		}
		return taken, kept, out
	}
	seq := func(lo, hi int) []int {
		var v []int
		for i := lo; i < hi; i++ {
			v = append(v, i)
		}
		return v
	}
	for _, gc := range gates {
		for _, max := range []int{1, 2, 8, 0, -1} {
			for _, fill := range fills {
				t.Run(fmt.Sprintf("%s/max=%d/fill=%d", gc.name, max, fill), func(t *testing.T) {
					wantOut, k := StealOK, BatchSize(fill, max)
					switch {
					case fill == 0:
						wantOut, k = StealEmpty, 0
					case !gc.hit:
						wantOut, k = StealMiss, 0
					}
					mt, mk, mo := run(t, NewMutex[int](4), fill, gc.g, max)
					if mo != wantOut || !slices.Equal(mt, seq(0, k)) || !slices.Equal(mk, seq(k, fill)) {
						t.Fatalf("mutex: %v took %v kept %v; want %v taking the oldest %d", mo, mt, mk, wantOut, k)
					}
					ct, ck, co := run(t, NewChaseLev[int](4), fill, gc.g, max)
					if co != mo || !slices.Equal(ct, mt) || !slices.Equal(ck, mk) {
						t.Fatalf("chaselev: %v took %v kept %v; mutex %v took %v kept %v", co, ct, ck, mo, mt, mk)
					}
					if wantOut == StealOK && fill > BlockSize {
						// The oldest block is sealed: it moves whole,
						// capped by max.
						k = BlockSize
						if max > 0 && k > max {
							k = max
						}
					}
					bt, bk, bo := run(t, NewBlock[int](4), fill, gc.g, max)
					if bo != wantOut || !slices.Equal(bt, seq(0, k)) || !slices.Equal(bk, seq(k, fill)) {
						t.Fatalf("block: %v took %v kept %v; want %v taking the oldest %d", bo, bt, bk, wantOut, k)
					}
				})
			}
		}
	}
}

// Concurrent steal-half stress (the race-detector test for the batched
// op): one owner pushing and intermittently popping, several thieves
// grabbing batches. Every pushed value must be consumed exactly once —
// nothing lost, nothing duplicated.
func TestConcurrentStealHalfStress(t *testing.T) {
	impls := []struct {
		name string
		mk   func() Queue[int]
	}{
		{"mutex", func() Queue[int] { return NewMutex[int](4) }},
		{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
		{"block", func() Queue[int] { return NewBlock[int](4) }},
	}
	total := 40000
	if testing.Short() {
		total = 10000
	}
	for _, impl := range impls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			const thieves = 6
			q := impl.mk()
			consumed := make([]atomic.Int32, total)
			var taken atomic.Int64
			done := make(chan struct{})

			var wg sync.WaitGroup
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					r := xrand.NewWorker(41, id)
					consume := func(ents []Entry[int]) {
						for _, e := range ents {
							consumed[e.Value].Add(1)
							taken.Add(1)
						}
					}
					var buf []Entry[int]
					for {
						var g *colorset.Set
						if r.Intn(2) == 0 {
							g = gate(r.Intn(testColors))
						}
						var out StealOutcome
						buf, out = q.Steal(g, r.Intn(8)+1, buf[:0])
						if out == StealOK {
							if len(buf) == 0 {
								t.Error("StealOK with empty batch")
								return
							}
							consume(buf)
						}
						select {
						case <-done:
							for {
								buf, out = q.Steal(nil, 0, buf[:0])
								if out != StealOK {
									return
								}
								consume(buf)
							}
						default:
						}
					}
				}(th)
			}

			r := xrand.New(13)
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%testColors))
				if r.Intn(3) == 0 {
					if e, ok := q.PopBottom(); ok {
						consumed[e.Value].Add(1)
						taken.Add(1)
					}
				}
			}
			for {
				e, ok := q.PopBottom()
				if !ok {
					break
				}
				consumed[e.Value].Add(1)
				taken.Add(1)
			}
			close(done)
			wg.Wait()
			for {
				ents, out := q.Steal(nil, 0, nil)
				if out != StealOK {
					break
				}
				for _, e := range ents {
					consumed[e.Value].Add(1)
					taken.Add(1)
				}
			}

			if got := taken.Load(); got != int64(total) {
				t.Fatalf("consumed %d items, want %d", got, total)
			}
			for i := 0; i < total; i++ {
				if c := consumed[i].Load(); c != 1 {
					t.Fatalf("value %d consumed %d times", i, c)
				}
			}
		})
	}
}

// Colored batches must start with an item containing the thief's color.
func TestConcurrentStealHalfColoredFirstItem(t *testing.T) {
	for _, impl := range []struct {
		name string
		mk   func() Queue[int]
	}{
		{"mutex", func() Queue[int] { return NewMutex[int](4) }},
		{"chaselev", func() Queue[int] { return NewChaseLev[int](4) }},
		{"block", func() Queue[int] { return NewBlock[int](4) }},
	} {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			total := 20000
			if testing.Short() {
				total = 5000
			}
			q := impl.mk()
			done := make(chan struct{})
			var wg sync.WaitGroup
			var bad atomic.Int64
			for th := 0; th < 4; th++ {
				wg.Add(1)
				go func(color int) {
					defer wg.Done()
					g := gate(color)
					var buf []Entry[int]
					for {
						var out StealOutcome
						buf, out = q.Steal(g, 4, buf[:0])
						if out == StealOK && !buf[0].Colors.Has(color) {
							bad.Add(1)
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}(th)
			}
			for i := 0; i < total; i++ {
				q.PushBottom(entry(i, i%8))
			}
			for {
				if _, ok := q.PopBottom(); !ok {
					break
				}
			}
			close(done)
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d colored batches led with a wrong-color item", bad.Load())
			}
		})
	}
}

func BenchmarkPushPopMutex(b *testing.B) {
	benchPushPop(b, NewMutex[int](64))
}

func BenchmarkPushPopChaseLev(b *testing.B) {
	benchPushPop(b, NewChaseLev[int](64))
}

func BenchmarkPushPopBlock(b *testing.B) {
	benchPushPop(b, NewBlock[int](64))
}

func benchPushPop(b *testing.B, q Queue[int]) {
	e := entry(1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PushBottom(e)
		q.PopBottom()
	}
}

func BenchmarkStealContention(b *testing.B) {
	for _, impl := range []struct {
		name string
		q    Queue[int]
	}{
		{"mutex", NewMutex[int](64)},
		{"chaselev", NewChaseLev[int](64)},
		{"block", NewBlock[int](64)},
	} {
		b.Run(impl.name, func(b *testing.B) {
			q := impl.q
			b.ReportAllocs()
			for i := 0; i < 1024; i++ {
				q.PushBottom(entry(i, i%testColors))
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					// Measures the contended steal path; once drained the
					// loop measures the empty-check path, which is also on
					// the idle-worker hot path.
					q.StealTop()
				}
			})
		})
	}
}

// TestUnboxedSlotIntegrity is the race-stress test for the unboxed
// Chase–Lev slot protocol: one owner pushing and popping over a deliberately
// tiny initial buffer (forcing grows and heavy slot recycling), many
// thieves doing colored steals. Each entry's color mask encodes its value,
// so a torn or recycled-slot read — the failure mode the reader-count
// protocol exists to prevent — surfaces as a value/mask mismatch, not
// just a lost item. Run under -race this also proves the protocol is
// data-race-free, not merely "benign".
func TestUnboxedSlotIntegrity(t *testing.T) {
	total := 30000
	if testing.Short() {
		total = 8000
	}
	const thieves = 4
	q := NewChaseLev[int](1) // minimum buffer: maximum recycling pressure
	consumed := make([]atomic.Int32, total)
	var bad atomic.Int64
	var taken atomic.Int64
	done := make(chan struct{})

	check := func(e Entry[int]) {
		if !e.Colors.Has(e.Value % testColors) {
			bad.Add(1)
		}
		consumed[e.Value].Add(1)
		taken.Add(1)
	}

	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.NewWorker(7, id)
			for {
				color := r.Intn(testColors)
				if e, out := stealOne(q, gate(color)); out == StealOK {
					if !e.Colors.Has(color) {
						bad.Add(1)
					}
					check(e)
				}
				select {
				case <-done:
					for {
						e, out := q.StealTop()
						if out == StealEmpty {
							return
						}
						if out == StealOK {
							check(e)
						}
					}
				default:
				}
			}
		}(th)
	}

	r := xrand.New(3)
	for i := 0; i < total; i++ {
		q.PushBottom(entry(i, i%testColors))
		// Pop in bursts so bottom oscillates across slot boundaries and
		// the same index is republished many times.
		for r.Intn(4) == 0 {
			e, ok := q.PopBottom()
			if !ok {
				break
			}
			check(e)
		}
	}
	for {
		e, ok := q.PopBottom()
		if !ok {
			break
		}
		check(e)
	}
	close(done)
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d entries had a value/mask mismatch (torn slot read)", bad.Load())
	}
	if got := taken.Load(); got != int64(total) {
		t.Fatalf("consumed %d items, want %d", got, total)
	}
	for i := 0; i < total; i++ {
		if c := consumed[i].Load(); c != 1 {
			t.Fatalf("value %d consumed %d times", i, c)
		}
	}
}
