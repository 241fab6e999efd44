package respop

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/dnssec"
	"repro/internal/fanout"
	"repro/internal/mix"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/testbed"
)

// This file is the streaming side of resolver-population deployment,
// mirroring population.ShardPlanner on the §4.2 resolver fleet:
//
//   - Planner turns a validated DeployConfig into an index-pure
//     assignment: resolver i's quadrant, profile, and address are
//     functions of (Seed, i) alone, so any contiguous slice of the
//     fleet can be regenerated by any process, in any order.
//   - ShardPlan describes one such slice; Cursor streams its
//     assignments; DeployShard instantiates just that slice's
//     resolvers onto a hierarchy.
//
// Profile shares stay exact at any scale: each quadrant's slots are
// apportioned by the same largest-remainder allocation the eager
// deployment used, laid out as runs, and visited through a
// deterministic Feistel permutation of [0, n) — a bijection, so the
// per-profile counts are exactly the allocation's, while neighboring
// indexes (and therefore neighboring addresses and shards) carry
// uncorrelated profiles.

// The paper probed 1.9 M open resolvers and 2.5 K closed ones (§4.2);
// the validator counts of DefaultCounts are the subset Figure 3 is
// built from. The plan layer carries both so reports can state
// validator prevalence at the paper's full proportions while deploying
// only the fleet that produces observable DNSSEC behaviour.
const (
	FullOpenResolvers   = 1900000
	FullClosedResolvers = 2500
)

// Quadrants returns the four measurement quadrants in canonical
// (global-index) order.
func Quadrants() []Quadrant {
	return []Quadrant{OpenIPv4, OpenIPv6, ClosedIPv4, ClosedIPv6}
}

// PopulationCounts apportions the paper's probed-population totals
// (1.9 M open, 2.5 K closed) across address families in proportion to
// each family's validator count, scaled by 1/den — the plan-layer
// bookkeeping behind the "of N probed" denominators. Family splits
// within open/closed are not published by the paper, so the validator
// proportions are the calibration choice.
func PopulationCounts(den int) map[Quadrant]int {
	if den < 1 {
		den = 1
	}
	openV4 := FullOpenResolvers * 105200 / 112000
	closedV4 := FullClosedResolvers * 1236 / 1925
	return map[Quadrant]int{
		OpenIPv4:   openV4 / den,
		OpenIPv6:   (FullOpenResolvers - openV4) / den,
		ClosedIPv4: closedV4 / den,
		ClosedIPv6: (FullClosedResolvers - closedV4) / den,
	}
}

// ConfigError is the typed rejection Validate returns for a
// nonsensical DeployConfig field.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("respop: invalid DeployConfig.%s: %s", e.Field, e.Reason)
}

// Validate rejects nonsensical configurations with a *ConfigError.
func (c DeployConfig) Validate() error {
	total := 0
	for q, n := range c.Counts {
		if q < OpenIPv4 || q > ClosedIPv6 {
			return &ConfigError{Field: "Counts", Reason: fmt.Sprintf("unknown quadrant %d", int(q))}
		}
		if n < 0 {
			return &ConfigError{Field: "Counts", Reason: fmt.Sprintf("negative count %d for quadrant %s", n, q)}
		}
		total += n
	}
	if total == 0 {
		return &ConfigError{Field: "Counts", Reason: "empty deployment"}
	}
	return nil
}

// quadPlan is one quadrant's precomputed assignment machinery.
type quadPlan struct {
	q      Quadrant
	offset int // global index of the quadrant's first resolver
	n      int
	mix    []Share
	cum    []int // cumulative largest-remainder counts over mix
	perm   feistel
}

// Planner derives per-resolver assignments from (Seed, global index).
// It is read-only after construction and safe for concurrent use.
type Planner struct {
	cfg   DeployConfig
	quads []quadPlan
	total int
}

// NewPlanner validates cfg and precomputes the per-quadrant allocation
// tables and permutations.
func NewPlanner(cfg DeployConfig) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Planner{cfg: cfg}
	offset := 0
	for _, q := range Quadrants() {
		n := cfg.Counts[q]
		if n == 0 {
			continue
		}
		shares := Mix(q)
		counts := allocateCounts(shares, n)
		cum := make([]int, len(counts))
		run := 0
		for i, c := range counts {
			run += c
			cum[i] = run
		}
		p.quads = append(p.quads, quadPlan{
			q:      q,
			offset: offset,
			n:      n,
			mix:    shares,
			cum:    cum,
			perm:   newFeistel(n, mix.SplitMix64(cfg.Seed^(uint64(q)+1)*0x9E3779B97F4A7C15)),
		})
		offset += n
	}
	p.total = offset
	return p, nil
}

// Total is the fleet size across all quadrants.
func (p *Planner) Total() int { return p.total }

// Assignment is one resolver's planned identity: everything DeployShard
// needs to instantiate it, derived purely from (Seed, Index).
type Assignment struct {
	// Index is the resolver's global ordinal in [0, Total).
	Index    int
	Quadrant Quadrant
	Profile  Profile
	Addr     netip.AddrPort
}

// At derives resolver i's assignment. The result depends only on
// (DeployConfig.Seed, Counts, i) — never on shard boundaries or which
// assignments were derived before.
func (p *Planner) At(i int) (Assignment, error) {
	if i < 0 || i >= p.total {
		return Assignment{}, fmt.Errorf("respop: index %d outside the %d-resolver fleet", i, p.total)
	}
	k := sort.Search(len(p.quads), func(k int) bool { return p.quads[k].offset+p.quads[k].n > i })
	qp := &p.quads[k]
	local := i - qp.offset
	pos := int(qp.perm.apply(uint64(local)))
	slot := sort.SearchInts(qp.cum, pos+1)
	return Assignment{
		Index:    i,
		Quadrant: qp.q,
		Profile:  qp.mix[slot].Profile,
		Addr:     quadrantAddr(qp.q, local),
	}, nil
}

// quadrantAddr gives local resolver index its quadrant's address:
// disjoint per-quadrant bases keep the fleet collision-free against
// itself and the testbed infrastructure at full DefaultCounts(1) scale.
func quadrantAddr(q Quadrant, local int) netip.AddrPort {
	switch q {
	case OpenIPv4: // 10.16.0.1 upward
		return addr4At(0x0A100000 + 1 + uint32(local))
	case ClosedIPv4: // 10.128.0.1 upward
		return addr4At(0x0A800000 + 1 + uint32(local))
	case OpenIPv6:
		return netsim.Addr6(0x20000 + 1 + uint32(local))
	default: // ClosedIPv6
		return netsim.Addr6(0x80000 + 1 + uint32(local))
	}
}

func addr4At(v uint32) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{
		byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v),
	}), 53)
}

// ShardPlan is the pure, serializable description of one contiguous
// slice of the fleet: any process holding (DeployConfig, ShardPlan)
// deploys identical resolvers.
type ShardPlan struct {
	// Index is the shard ordinal, 0-based.
	Index int `json:"index"`
	// Offset is the global index of the shard's first resolver.
	Offset int `json:"offset"`
	// Size is the number of resolvers in the shard.
	Size int `json:"size"`
}

// ShardIndex returns the shard ordinal (core.Sharded).
func (p ShardPlan) ShardIndex() int { return p.Index }

// Plan splits the fleet into the given number of contiguous shards
// (fanout.Split). A count above the fleet size is clamped; counts ≤ 0
// mean one shard.
func (p *Planner) Plan(shards int) []ShardPlan {
	sizes := fanout.Split(p.total, shards)
	plans := make([]ShardPlan, len(sizes))
	offset := 0
	for s, size := range sizes {
		plans[s] = ShardPlan{Index: s, Offset: offset, Size: size}
		offset += size
	}
	return plans
}

// ShardCursor streams one shard's assignments in global-index order.
type ShardCursor struct {
	p         *Planner
	next, end int
}

// Cursor positions a cursor over plan's slice of the fleet.
func (p *Planner) Cursor(plan ShardPlan) (*ShardCursor, error) {
	if plan.Offset < 0 || plan.Size < 0 || plan.Offset+plan.Size > p.total {
		return nil, fmt.Errorf("respop: shard plan %d spans [%d,%d) outside the %d-resolver fleet",
			plan.Index, plan.Offset, plan.Offset+plan.Size, p.total)
	}
	return &ShardCursor{p: p, next: plan.Offset, end: plan.Offset + plan.Size}, nil
}

// Next returns the next assignment, or ok=false when the shard is
// exhausted.
func (c *ShardCursor) Next() (Assignment, bool) {
	if c.next >= c.end {
		return Assignment{}, false
	}
	a, err := c.p.At(c.next)
	if err != nil {
		// Cursor bounds were validated against the planner at creation;
		// At cannot fail within them.
		panic(err)
	}
	c.next++
	return a, true
}

// Instance is one deployed resolver in the simulation.
type Instance struct {
	// Index is the resolver's global ordinal in the fleet.
	Index    int
	Addr     netip.AddrPort
	Quadrant Quadrant
	Profile  Profile
	Resolver *resolver.Resolver
}

// DeployShard instantiates one shard's resolvers on the hierarchy's
// network, registering each at its planned address. Closed resolvers
// are registered too — reachability policy (closed = only probed via
// Atlas) is enforced by the experiment driver, not the transport. The
// whole fleet verifies signatures through memo (nil: each resolver
// verifies every signature itself) and counts into reg (nil: no
// metrics); nothing else is shared.
func DeployShard(h *testbed.Hierarchy, p *Planner, plan ShardPlan, reg *obs.Registry, memo *dnssec.VerifyMemo) ([]*Instance, error) {
	cur, err := p.Cursor(plan)
	if err != nil {
		return nil, err
	}
	out := make([]*Instance, 0, plan.Size)
	for {
		a, ok := cur.Next()
		if !ok {
			break
		}
		res := resolver.New(resolver.Config{
			Roots:       h.Roots,
			TrustAnchor: h.TrustAnchor,
			Exchanger:   h.Net,
			Policy:      a.Profile.Policy,
			Now:         p.cfg.Now,
			Obs:         reg,
			VerifyMemo:  memo,
		})
		h.Net.Register(a.Addr, res)
		out = append(out, &Instance{
			Index: a.Index, Addr: a.Addr, Quadrant: a.Quadrant,
			Profile: a.Profile, Resolver: res,
		})
	}
	return out, nil
}

// feistel is a deterministic pseudorandom permutation of [0, n): a
// 4-round balanced Feistel network over the smallest even-bit domain
// covering n, cycle-walking out-of-range values back into [0, n). A
// Feistel round is invertible, so the whole network permutes its
// domain and the restriction to [0, n) stays a bijection — the
// property that keeps largest-remainder profile counts exact.
type feistel struct {
	n        uint64
	halfBits uint
	mask     uint64
	keys     [4]uint64
}

func newFeistel(n int, seed uint64) feistel {
	f := feistel{n: uint64(n)}
	bits := uint(1)
	for (uint64(1) << (2 * bits)) < uint64(n) {
		bits++
	}
	f.halfBits = bits
	f.mask = (uint64(1) << bits) - 1
	s := seed
	for i := range f.keys {
		s = mix.SplitMix64(s)
		f.keys[i] = s
	}
	return f
}

// apply maps i ∈ [0, n) to its permuted position. Cycle-walking
// terminates: the domain is at most 4n, so the expected walk is short
// and every orbit re-enters [0, n).
func (f feistel) apply(i uint64) uint64 {
	if f.n < 2 {
		return i
	}
	for {
		i = f.round(i)
		if i < f.n {
			return i
		}
	}
}

func (f feistel) round(x uint64) uint64 {
	l := x >> f.halfBits
	r := x & f.mask
	for _, k := range f.keys {
		l, r = r, l^(mix.SplitMix64(r^k)&f.mask)
	}
	return l<<f.halfBits | r
}
