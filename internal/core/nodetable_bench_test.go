package core

import (
	"fmt"
	"testing"
)

// benchBound keeps the tables small enough to rebuild cheaply while large
// enough that per-op cost dominates.
const benchBound = 1 << 15

func benchSpec() FuncSpec {
	return FuncSpec{
		ColorFn: func(k Key) int { return int(k) % 8 },
		BoundFn: func() int { return benchBound },
	}
}

// BenchmarkGetOrCreate measures the create path of both node-table
// backends. The dense arena case must report exactly 0 allocs/op (CI's
// bench-smoke job hard-gates it): creation is one CAS plus field stores
// into preallocated slots, while the sharded map pays a &Node allocation
// plus map growth per create.
func BenchmarkGetOrCreate(b *testing.B) {
	spec := benchSpec()
	backends := []struct {
		name string
		mk   func() nodeTable
	}{
		{"dense", func() nodeTable { return newTestArena(spec, benchBound, 8) }},
		{"sharded", func() nodeTable { return newNodeMap(spec) }},
	}
	for _, impl := range backends {
		b.Run(impl.name, func(b *testing.B) {
			nt := impl.mk()
			k := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k == benchBound {
					// Table exhausted: rebuild off the clock so every
					// timed op is a create.
					b.StopTimer()
					nt = impl.mk()
					k = 0
					b.StartTimer()
				}
				nt.getOrCreate(Key(k))
				k++
			}
		})
	}
}

// BenchmarkGetOrCreateLookup measures the (far more common) lookup path:
// every edge after a node's first naming resolves to an existing node.
func BenchmarkGetOrCreateLookup(b *testing.B) {
	spec := benchSpec()
	backends := []struct {
		name string
		nt   nodeTable
	}{
		{"dense", newTestArena(spec, benchBound, 8)},
		{"sharded", newNodeMap(spec)},
	}
	for _, impl := range backends {
		b.Run(impl.name, func(b *testing.B) {
			for k := 0; k < benchBound; k++ {
				impl.nt.getOrCreate(Key(k))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.nt.getOrCreate(Key(i & (benchBound - 1)))
			}
		})
	}
}

// BenchmarkNotify measures the lifecycle word's successor handshake — the
// uncontended addSuccessor / markComputed / decJoin cycle that replaced
// the per-node mutex — at small fan-outs. The successor backing array is
// reused, so steady-state notification allocates nothing.
func BenchmarkNotify(b *testing.B) {
	for _, fanout := range []int{1, 8} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			pred := &Node{}
			succs := make([]*Node, fanout)
			for i := range succs {
				succs[i] = &Node{}
				succs[i].state.Store(nodeReady)
			}
			backing := make([]*Node, 0, fanout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred.state.Store(nodeReady)
				pred.succs = backing
				for _, s := range succs {
					s.join.Store(1)
					if !pred.addSuccessor(s) {
						b.Fatal("addSuccessor refused before markComputed")
					}
				}
				drained := pred.markComputed()
				for _, s := range drained {
					s.decJoin()
				}
				if len(drained) != fanout {
					b.Fatalf("drained %d, want %d", len(drained), fanout)
				}
			}
		})
	}
}
