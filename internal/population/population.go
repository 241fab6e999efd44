package population

import (
	"math/rand/v2"

	"repro/internal/dnswire"
)

// Paper-scale constants (§5.1): the full measurement covered 302 M
// registered domains, 26.6 M DNSSEC-enabled (8.8 %), and 15.5 M
// NSEC3-enabled (58.9 % of DNSSEC-enabled).
const (
	FullRegistered = 302_000_000
	FullNSEC3      = 15_500_000

	dnssecRate       = 0.088 // DNSSEC-enabled fraction of registered domains
	nsec3GivenDNSSEC = 0.589 // NSEC3 fraction of DNSSEC-enabled domains
	optOutRate       = 0.064 // opt-out fraction of NSEC3-enabled domains (§5.1)
)

// Config sizes a universe.
type Config struct {
	// Registered is the number of registered domains to generate.
	Registered int
	// Seed drives all sampling.
	Seed uint64
}

// DomainSpec is one synthetic registered domain: everything needed to
// materialize and later scan it.
type DomainSpec struct {
	Name     dnswire.Name
	TLD      string
	Operator string // operator Name (Table 2 attribution key)
	// DNSSEC marks the domain as signed; NSEC3 selects hashed denial
	// (else plain NSEC).
	DNSSEC bool
	NSEC3  bool
	// Iterations and SaltLen are the NSEC3 parameters.
	Iterations uint16
	SaltLen    int
	OptOut     bool
	// Rank is the Tranco-style popularity rank (0 = unranked).
	Rank int
}

// Universe is a generated population.
type Universe struct {
	Config  Config
	Domains []DomainSpec
	// Operators indexes the operator table by name.
	Operators map[string]Operator
	// TLDs is the simulated TLD registry (always full-size, §5.1).
	TLDs []TLDSpec
}

// tldTable spreads domains over TLDs with rough real-world weights.
// The names must exist in the TLD registry.
var tldTable = []struct {
	name   string
	weight float64
}{
	{"com", 0.42}, {"net", 0.08}, {"org", 0.07}, {"de", 0.07},
	{"nl", 0.05}, {"se", 0.04}, {"ch", 0.04}, {"fr", 0.04},
	{"ru", 0.03}, {"uk-co", 0.03}, {"io", 0.02}, {"info", 0.04},
	{"shop", 0.03}, {"online", 0.02}, {"site", 0.02},
}

// newUniverseRNG seeds the generator's PCG stream.
func newUniverseRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03))
}

// Generate builds the universe deterministically from cfg — the
// collect-all wrapper over the shard cursor. The sharded pipeline
// (core.RunSurvey with Shards > 1) consumes the cursor directly and
// produces exactly the domains returned here.
func Generate(cfg Config) (*Universe, error) {
	cur, err := NewShardCursor(cfg, 1)
	if err != nil {
		return nil, err
	}
	shard, err := cur.Next()
	if err != nil {
		return nil, err
	}
	return shard.Universe, nil
}

// GenerateRanked builds the universe Generate builds and ranks every
// domain of it: a Tranco-style popularity list whose DNSSEC/NSEC3/
// parameter distribution matches Figure 2's measurements (6.66 %
// DNSSEC-enabled; 40.8 % of those NSEC3; of the NSEC3 ones 22.8 %
// zero-iteration, 23.6 % no-salt, 12.7 % both), uniformly across
// ranks. Ranking is a whole-universe permutation, so a ranked universe
// is never sharded.
func GenerateRanked(cfg Config) (*Universe, error) {
	u, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	assignRanks(u, newUniverseRNG(cfg.Seed^0x52414E4B45440A01))
	return u, nil
}

// assignRanks gives every domain of u a distinct rank and redraws its
// DNSSEC and NSEC3 parameters from the ranked marginals.
func assignRanks(u *Universe, rng *rand.Rand) {
	// Ranked-domain conditional parameter cells:
	//   both compliant            12.7 %
	//   zero-iter, salted         22.8 − 12.7 = 10.1 %
	//   iterated, no salt         23.6 − 12.7 = 10.9 %
	//   iterated, salted          remainder   = 66.3 %
	for rank, idx := range rng.Perm(len(u.Domains)) {
		d := &u.Domains[idx]
		d.Rank = rank + 1
		d.DNSSEC = rng.Float64() < 0.0666
		d.NSEC3 = false
		d.Iterations, d.SaltLen = 0, 0
		if !d.DNSSEC {
			continue
		}
		if rng.Float64() >= 0.408 {
			continue // NSEC-signed popular domain
		}
		d.NSEC3 = true
		u01 := rng.Float64()
		var iter uint16
		var salt int
		switch {
		case u01 < 0.127:
			// fully compliant
		case u01 < 0.228:
			salt = 4 + 4*rng.IntN(2)
		case u01 < 0.337:
			iter = []uint16{1, 5, 8}[rng.IntN(3)]
		default:
			iter = []uint16{1, 1, 5, 8, 10}[rng.IntN(5)]
			salt = []int{2, 4, 8, 8}[rng.IntN(4)]
		}
		d.Iterations, d.SaltLen = iter, salt
		d.OptOut = rng.Float64() < optOutRate
	}
}

func operatorCumulative(ops []Operator) []float64 {
	total := 0.0
	for _, op := range ops {
		total += op.Share
	}
	cum := make([]float64, len(ops))
	acc := 0.0
	for i, op := range ops {
		acc += op.Share / total
		cum[i] = acc
	}
	return cum
}

func pickOperator(ops []Operator, cum []float64, u float64) Operator {
	for i, c := range cum {
		if u <= c {
			return ops[i]
		}
	}
	return ops[len(ops)-1]
}

func pickProfile(profiles []ParamProfile, u float64) ParamProfile {
	total := 0.0
	for _, p := range profiles {
		total += p.Weight
	}
	acc := 0.0
	for _, p := range profiles {
		acc += p.Weight / total
		if u <= acc {
			return p
		}
	}
	return profiles[len(profiles)-1]
}

func tldCumulative() []float64 {
	total := 0.0
	for _, t := range tldTable {
		total += t.weight
	}
	cum := make([]float64, len(tldTable))
	acc := 0.0
	for i, t := range tldTable {
		acc += t.weight / total
		cum[i] = acc
	}
	return cum
}

func pickTLD(cum []float64, u float64) string {
	for i, c := range cum {
		if u <= c {
			return tldTable[i].name
		}
	}
	return tldTable[len(tldTable)-1].name
}
