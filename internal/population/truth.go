package population

import (
	"repro/internal/analysis"
	"repro/internal/compliance"
)

// Truth is what one shard of the universe plants, folded the way the
// survey folds what it scans: the §5.1 aggregate (both Figure 1
// histograms and their maxima) and the Table 2 operator stats. A
// survey that measures every zone right reports exactly this.
type Truth struct {
	Agg       *compliance.Aggregate
	Operators *analysis.OperatorStats
}

// Truth folds the planted class of every domain in plan, with no
// deploy and no scan. Each NSEC3-enabled domain is attributed to the
// operator key its NS host yields: the operator's infrastructure
// domain.
func (p *ShardPlanner) Truth(plan ShardPlan) (*Truth, error) {
	shard, err := p.GenerateShard(plan)
	if err != nil {
		return nil, err
	}
	t := &Truth{Agg: compliance.NewAggregate(), Operators: analysis.NewOperatorStats()}
	for _, d := range shard.Universe.Domains {
		c := PlantedClass(d)
		t.Agg.Add(c)
		if c.NSEC3Enabled {
			t.Operators.Add([]string{p.operators[d.Operator].InfraDomain}, c.Iterations, c.SaltLen)
		}
	}
	return t, nil
}

// TLDTruth folds the planted class of every TLD in specs: the
// aggregate the survey's scan of the registry must report. The
// aggregate names no zone, so neither do the classes.
func TLDTruth(specs []TLDSpec) compliance.Aggregate {
	agg := compliance.NewAggregate()
	for _, s := range specs {
		agg.Add(plantedClass(s.DNSSEC, s.NSEC3, s.Iterations, s.SaltLen, s.OptOut))
	}
	return *agg
}

// PlantedClass is the classification Deploy plants for d: what
// compliance.Classify yields from a correct scan of its zone.
func PlantedClass(d DomainSpec) compliance.ZoneClass {
	c := plantedClass(d.DNSSEC, d.NSEC3, d.Iterations, d.SaltLen, d.OptOut)
	c.Domain = d.Name
	return c
}

// plantedClass maps a zone's signing parameters (signConfig's inputs)
// to its classification: an unsigned zone serves no DNSKEY, a signed
// one with plain NSEC shows NSEC in its denials, and an NSEC3 zone
// serves one NSEC3PARAM that its NSEC3 records agree with.
func plantedClass(dnssec, hashed bool, iterations uint16, saltLen int, optOut bool) compliance.ZoneClass {
	c := compliance.ZoneClass{DNSSECEnabled: dnssec}
	switch {
	case !dnssec:
	case !hashed:
		c.NSECUsed = true
	default:
		c.NSEC3Enabled = true
		c.Iterations, c.SaltLen, c.OptOut = iterations, saltLen, optOut
		c.Item2OK, c.Item3OK = iterations == 0, saltLen == 0
		c.BothOK = c.Item2OK && c.Item3OK
	}
	return c
}
