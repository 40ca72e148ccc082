package sched

import (
	"slices"
	"strings"
	"testing"

	"nabbitc/internal/colorset"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

func TestPlan(t *testing.T) {
	flat := Budgets{Colored: true, GlobalColored: 4, FirstStealRounds: 64}
	hier := Budgets{Colored: true, Hierarchical: true, OwnColor: 2, SocketColored: 2,
		SocketRandom: 2, GlobalColored: 4, StealBatch: 8, FirstStealRounds: 64}
	const (
		oc = TierOwnColor
		sc = TierSocketColored
		sr = TierSocketRandom
		gc = TierGlobalColored
		gr = TierGlobalRandom
	)
	cases := []struct {
		name   string
		b      Budgets
		topo   numa.Topology
		self   int
		round  []Tier
		batch  map[int]int // victim -> Batch(victim); victims not listed want 0
		giveUp int64
	}{
		{
			name:  "flat uncolored",
			b:     Budgets{},
			topo:  numa.Paper(4),
			self:  2,
			round: []Tier{gr},
		},
		{
			name:   "flat colored",
			b:      flat,
			topo:   numa.Paper(20),
			self:   3,
			round:  []Tier{gc, gc, gc, gc, gr},
			giveUp: 64 * 19,
		},
		{
			name:   "hierarchical multi-socket",
			b:      hier,
			topo:   numa.Topology{Workers: 8, CoresPerDomain: 4},
			self:   5,
			round:  []Tier{oc, oc, sc, sc, sr, sr, gc, gc, gc, gc, gr},
			batch:  map[int]int{0: 8, 1: 8, 2: 8, 3: 8},
			giveUp: 64 * 7,
		},
		{
			name:   "hierarchical single-socket is flat",
			b:      hier,
			topo:   numa.Paper(6),
			self:   0,
			round:  []Tier{gc, gc, gc, gc, gr},
			giveUp: 64 * 5,
		},
		{
			name:   "hierarchical lone-worker socket batches without socket tiers",
			b:      hier,
			topo:   numa.Topology{Workers: 4, CoresPerDomain: 1},
			self:   1,
			round:  []Tier{gc, gc, gc, gc, gr},
			batch:  map[int]int{0: 8, 2: 8, 3: 8},
			giveUp: 64 * 3,
		},
		{
			name:  "hierarchical uncolored keeps only the random tiers",
			b:     Budgets{Hierarchical: true, SocketRandom: 3, StealBatch: 5},
			topo:  numa.Topology{Workers: 6, CoresPerDomain: 3},
			self:  4,
			round: []Tier{sr, sr, sr, gr},
			batch: map[int]int{0: 5, 1: 5, 2: 5},
		},
		{
			name:   "first-steal give-up bound",
			b:      Budgets{Colored: true, GlobalColored: 1, FirstStealRounds: 3},
			topo:   numa.Paper(80),
			self:   79,
			round:  []Tier{gc, gr},
			giveUp: 3 * 79,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlan(tc.b, tc.topo, tc.self)
			// The phase view (simulator) and the budget view (engine)
			// must describe the same round.
			var round, budgeted []Tier
			for ph := 0; ph < p.Len(); ph++ {
				round = append(round, p.At(ph))
			}
			for tier := Tier(0); tier < NumTiers; tier++ {
				for i := p.Budget(tier); i > 0; i-- {
					budgeted = append(budgeted, tier)
				}
			}
			if !slices.Equal(round, tc.round) || !slices.Equal(budgeted, tc.round) {
				t.Errorf("round = %v by phase, %v by budget; want %v", round, budgeted, tc.round)
			}
			if got := p.GiveUp(); got != tc.giveUp {
				t.Errorf("GiveUp = %d, want %d", got, tc.giveUp)
			}
			for v := 0; v < tc.topo.Workers; v++ {
				if got := p.Batch(v); got != tc.batch[v] {
					t.Errorf("Batch(%d) = %d, want %d", v, got, tc.batch[v])
				}
			}
			// Victims: socket tiers stay among socket peers, global tiers
			// range over every other worker, and nobody robs itself.
			lo, hi := tc.topo.SocketWorkers(tc.self)
			rng := xrand.New(7)
			for _, tier := range tc.round {
				seen := map[int]bool{}
				for i := 0; i < 50*tc.topo.Workers; i++ {
					v := p.Victim(rng, tier)
					seen[v] = true
					if v == tc.self || v < 0 || v >= tc.topo.Workers {
						t.Fatalf("%v victim %d out of range", tier, v)
					}
					if tier <= TierSocketRandom && (v < lo || v >= hi) {
						t.Fatalf("%v victim %d outside socket [%d,%d)", tier, v, lo, hi)
					}
				}
				want := tc.topo.Workers - 1
				if tier <= TierSocketRandom {
					want = hi - lo - 1
				}
				if len(seen) != want {
					t.Errorf("%v drew %d distinct victims, want %d", tier, len(seen), want)
				}
			}
		})
	}
}

func TestPlanAdmits(t *testing.T) {
	// Gate: each tier's mask, for a flat, a hierarchical and a
	// single-socket plan. Random tiers are ungated; the colored tiers gate
	// on the thief's own color or on its socket's colors, whether or not
	// the plan budgets them.
	colored := Budgets{Colored: true, GlobalColored: 4}
	hier := Budgets{Colored: true, Hierarchical: true, OwnColor: 2, SocketColored: 2,
		SocketRandom: 2, GlobalColored: 4, StealBatch: 8}
	for _, tc := range []struct {
		name        string
		b           Budgets
		topo        numa.Topology
		self        int
		own, socket []int
	}{
		{"flat", colored, numa.Paper(20), 3, []int{3}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"hierarchical", hier, numa.Topology{Workers: 8, CoresPerDomain: 4}, 5, []int{5}, []int{4, 5, 6, 7}},
		{"single-socket", hier, numa.Paper(6), 0, []int{0}, []int{0, 1, 2, 3, 4, 5}},
	} {
		p := NewPlan(tc.b, tc.topo, tc.self)
		want := [NumTiers]*colorset.Set{}
		own, socket := colorset.Of(tc.topo.Workers, tc.own...), colorset.Of(tc.topo.Workers, tc.socket...)
		want[TierOwnColor], want[TierGlobalColored], want[TierSocketColored] = &own, &own, &socket
		for tier := Tier(0); tier < NumTiers; tier++ {
			got := p.Gate(tier)
			if (got == nil) != (want[tier] == nil) || got != nil && !got.Equal(*want[tier]) {
				t.Errorf("%s: Gate(%v) = %v, want %v", tc.name, tier, got, want[tier])
			}
			if got := got != nil; got != tier.Colored() {
				t.Errorf("%s: Gate(%v) gated = %v, but Colored() = %v", tc.name, tier, got, tier.Colored())
			}
		}
	}

	// Admits: what each tier's gate lets through on the hierarchical plan.
	p := NewPlan(Budgets{Colored: true, Hierarchical: true}, numa.Topology{Workers: 8, CoresPerDomain: 4}, 1)
	names := []string{"own", "peer", "remote"}
	masks := []colorset.Set{colorset.Of(8, 1), colorset.Of(8, 3), colorset.Of(8, 6)}
	want := [NumTiers]string{
		TierOwnColor:      "own",
		TierSocketColored: "own peer",
		TierSocketRandom:  "own peer remote",
		TierGlobalColored: "own",
		TierGlobalRandom:  "own peer remote",
	}
	for tier := Tier(0); tier < NumTiers; tier++ {
		var got []string
		for i, m := range masks {
			if p.Admits(tier, m) {
				got = append(got, names[i])
			}
		}
		if strings.Join(got, " ") != want[tier] {
			t.Errorf("%v admits %v, want %q", tier, got, want[tier])
		}
	}
}
