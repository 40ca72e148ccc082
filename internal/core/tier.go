package core

import (
	"nabbitc/internal/numa"
	"nabbitc/internal/sched"
)

// StealTier identifies one rung of the hierarchical victim order (see
// Policy.Hierarchical). The flat protocol's probes are accounted under the
// global tiers, so tier counters are comparable across policies. The
// tiers and the walk over them are defined in internal/sched, shared with
// the simulator.
type StealTier = sched.Tier

// The steal tiers, in walk order (see sched.Tier).
const (
	TierOwnColor      = sched.TierOwnColor
	TierSocketColored = sched.TierSocketColored
	TierSocketRandom  = sched.TierSocketRandom
	TierGlobalColored = sched.TierGlobalColored
	TierGlobalRandom  = sched.TierGlobalRandom
	// NumStealTiers sizes per-tier counter arrays.
	NumStealTiers = sched.NumTiers
)

// TierNames returns the display names of all tiers in order.
func TierNames() []string {
	out := make([]string, NumStealTiers)
	for t := StealTier(0); t < NumStealTiers; t++ {
		out[t] = t.String()
	}
	return out
}

// StealPlan fits the policy's steal protocol to worker w of topo. Both
// machines build each worker's steal walk through it, so a policy can
// never walk differently in the simulator and the real engine.
func (p Policy) StealPlan(topo numa.Topology, w int) sched.Plan {
	return sched.NewPlan(sched.Budgets{
		Colored:          p.Colored,
		Hierarchical:     p.Hierarchical,
		OwnColor:         p.OwnColorStealAttempts,
		SocketColored:    p.SocketColoredAttempts,
		SocketRandom:     p.SocketRandomAttempts,
		GlobalColored:    p.ColoredStealAttempts,
		StealBatch:       p.StealBatch,
		FirstStealRounds: p.FirstStealMaxRounds,
	}, topo, w)
}
