package sched

import (
	"nabbitc/internal/colorset"
	"nabbitc/internal/numa"
	"nabbitc/internal/xrand"
)

// Tier identifies one rung of the victim order an idle worker walks. The
// flat protocol's probes are accounted under the global tiers, so tier
// counters are comparable across policies.
type Tier int

const (
	// TierOwnColor: same-socket victim, top item contains the thief's
	// exact color.
	TierOwnColor Tier = iota
	// TierSocketColored: same-socket victim, top item contains any color
	// homed in the thief's socket.
	TierSocketColored
	// TierSocketRandom: same-socket victim, any item.
	TierSocketRandom
	// TierGlobalColored: any victim, thief's exact color (the flat
	// protocol's colored probe).
	TierGlobalColored
	// TierGlobalRandom: any victim, any item (the flat protocol's random
	// steal).
	TierGlobalRandom
	// NumTiers sizes per-tier counter arrays.
	NumTiers
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierOwnColor:
		return "own-color"
	case TierSocketColored:
		return "socket-colored"
	case TierSocketRandom:
		return "socket-random"
	case TierGlobalColored:
		return "global-colored"
	case TierGlobalRandom:
		return "global-random"
	default:
		return "unknown"
	}
}

// Colored reports whether the tier's probes are gated on the victim's
// top item carrying a color the thief wants.
func (t Tier) Colored() bool {
	return t == TierOwnColor || t == TierSocketColored || t == TierGlobalColored
}

// Budgets is the steal protocol a policy asks for, before it is fitted to
// one worker's place in a topology (core.Policy's fields of the same
// meaning, already normalized).
type Budgets struct {
	// Colored turns on the colored tiers (own-color, socket-colored,
	// global-colored).
	Colored bool
	// Hierarchical turns on the socket tiers and batched cross-socket
	// steals.
	Hierarchical bool
	// OwnColor, SocketColored, SocketRandom and GlobalColored are the
	// per-round probe budgets of those tiers.
	OwnColor, SocketColored, SocketRandom, GlobalColored int
	// StealBatch caps how many items one batched steal takes.
	StealBatch int
	// FirstStealRounds bounds an enforced first colored steal, in sweeps
	// of Workers-1 probes.
	FirstStealRounds int
}

// Plan is one worker's steal walk. A round visits the tiers in order,
// making each tier's budget of probes; the global-random tier always has
// exactly one probe and ends the round. The walk restarts from the top
// after a successful steal or a failed round. The real engine loops over
// the tiers' budgets; the simulator, which makes one probe per event,
// indexes the same sequence by phase (0 ≤ phase < Len).
//
// The flat protocol is the plan with zero socket-tier budgets and
// batching off: GlobalColored colored probes, then one random probe. The
// hierarchical protocol adds the socket tiers in front and batches steals
// from victims in another socket. On a single-socket topology the socket
// tiers would only duplicate the global ones, so a hierarchical plan
// there is exactly the flat plan.
//
// Plans are held by value in each worker; the int32 fields keep one small.
type Plan struct {
	own             colorset.Set // the worker's own color, as a mask
	socket          colorset.Set // colors homed in the worker's socket
	self, lo, hi, n int32
	budget          [NumTiers]int32
	round           int32
	batch           int32 // cap of a cross-socket batched steal; 0 never batches
	firstRounds     int32
}

// NewPlan fits budgets b to worker self of topology topo.
func NewPlan(b Budgets, topo numa.Topology, self int) Plan {
	n := topo.Workers
	lo, hi := topo.SocketWorkers(self)
	p := Plan{
		own:         colorset.Of(n, self),
		socket:      colorset.New(n),
		self:        int32(self),
		lo:          int32(lo),
		hi:          int32(hi),
		n:           int32(n),
		firstRounds: int32(b.FirstStealRounds),
	}
	for c := lo; c < hi; c++ {
		p.socket.Add(c)
	}
	sockets := b.Hierarchical && hi-lo < n
	if sockets && hi-lo > 1 {
		if b.Colored {
			p.budget[TierOwnColor] = int32(b.OwnColor)
			p.budget[TierSocketColored] = int32(b.SocketColored)
		}
		p.budget[TierSocketRandom] = int32(b.SocketRandom)
	}
	if b.Colored {
		p.budget[TierGlobalColored] = int32(b.GlobalColored)
	}
	p.budget[TierGlobalRandom] = 1
	for _, k := range p.budget {
		p.round += k
	}
	if sockets {
		p.batch = int32(b.StealBatch)
	}
	return p
}

// Budget returns how many probes of tier t one round makes.
func (p *Plan) Budget(t Tier) int { return int(p.budget[t]) }

// Len returns the number of probes in one round.
func (p *Plan) Len() int { return int(p.round) }

// At returns the tier of the probe at phase (0 ≤ phase < Len).
func (p *Plan) At(phase int) Tier {
	for t, k := range p.budget {
		if phase < int(k) {
			return Tier(t)
		}
		phase -= int(k)
	}
	return TierGlobalRandom
}

// Victim picks the worker to probe for tier t: a random same-socket peer
// for the socket tiers, a random other worker for the global ones. The
// plan only schedules socket tiers when the socket has a peer.
func (p *Plan) Victim(rng *xrand.Rand, t Tier) int {
	if t <= TierSocketRandom {
		return pick(rng, int(p.self), int(p.lo), int(p.hi))
	}
	return pick(rng, int(p.self), 0, int(p.n))
}

// pick returns a uniformly random worker in [lo, hi) other than self,
// which must lie in the range.
func pick(rng *xrand.Rand, self, lo, hi int) int {
	v := lo + rng.Intn(hi-lo-1)
	if v >= self {
		v++
	}
	return v
}

// Batch returns the cap of the batched steal a probe of victim v takes,
// or 0 when it takes a single item: only hierarchical plans batch, and
// only from victims in another socket.
func (p *Plan) Batch(v int) int {
	if v < int(p.lo) || v >= int(p.hi) {
		return int(p.batch)
	}
	return 0
}

// Gate returns the mask a probe of tier t gates its steal on, which the
// oldest item's colors must intersect: the thief's own color for
// TierOwnColor and TierGlobalColored, every color of its socket for
// TierSocketColored, and nil (take anything) for the random tiers. The
// real engine hands it to deque.Queue.Steal; the simulator reads it
// through Admits.
func (p *Plan) Gate(t Tier) *colorset.Set {
	switch t {
	case TierOwnColor, TierGlobalColored:
		return &p.own
	case TierSocketColored:
		return &p.socket
	default:
		return nil
	}
}

// Admits reports whether a probe of tier t may take an item advertising
// colors.
func (p *Plan) Admits(t Tier, colors colorset.Set) bool {
	gate := p.Gate(t)
	return gate == nil || colors.Intersects(*gate)
}

// GiveUp returns how many probes an enforced first colored steal may make
// before the worker gives up on it and walks the plan instead.
func (p *Plan) GiveUp() int64 { return int64(p.firstRounds) * int64(p.n-1) }
