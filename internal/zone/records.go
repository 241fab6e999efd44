package zone

import (
	"sort"

	"repro/internal/dnswire"
)

// AllRecords returns the complete signed zone contents in AXFR order:
// the apex SOA first, then every data record, every RRSIG, and the
// denial chain (NSEC or NSEC3), and the apex SOA again last — the
// transfer format of RFC 5936 §2.2. A transfer carries every signature,
// so the ones no answer has needed yet are made here; the error is the
// first that could not be.
func (s *Signed) AllRecords() ([]dnswire.RR, error) {
	var out []dnswire.RR
	soaRRs := s.Zone.Lookup(s.Zone.Apex, dnswire.TypeSOA)
	out = append(out, soaRRs...)

	// Data records (excluding the SOA already emitted), canonical order.
	for _, rr := range s.Zone.Records() {
		if rr.Type() == dnswire.TypeSOA && rr.Name == s.Zone.Apex {
			continue
		}
		out = append(out, rr)
	}

	// RRSIGs, by owner in canonical order and covered type. The NSEC3
	// RRSIGs are kept beside the chain, not in s.rrsigs, and their
	// owners sort in among the zone's own names.
	keys := make([]sigKey, 0, len(s.rrsigs)+len(s.nsec3Sigs))
	for k := range s.rrsigs {
		keys = append(keys, k)
	}
	if s.chain != nil {
		for i := range s.chain.Records {
			keys = append(keys, sigKey{s.chain.Records[i].Full.Name, dnswire.TypeNSEC3})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := dnswire.CanonicalCompare(keys[i].owner, keys[j].owner); c != 0 {
			return c < 0
		}
		return keys[i].covered < keys[j].covered
	})
	for _, k := range keys {
		sigs, err := s.RRSIGsFor(k.owner, k.covered)
		if err != nil {
			return nil, err
		}
		out = append(out, sigs...)
	}

	// Denial chain.
	switch s.Config.Denial {
	case DenialNSEC3:
		if s.chain != nil {
			for i := range s.chain.Records {
				out = append(out, s.chain.Records[i].Full)
			}
		}
	case DenialNSEC:
		for _, owner := range s.nsecOrder {
			if rr, ok := s.nsecRRs[owner]; ok {
				out = append(out, rr)
			}
		}
	}

	// Closing SOA.
	out = append(out, soaRRs...)
	return out, nil
}

// TransferPolicy controls who may AXFR a zone from the authoritative
// server. The paper's §4.1 relied on ccTLDs that allow open transfers
// (.ch, .nu, .se, .li); most zones refuse.
type TransferPolicy int

// Transfer policies.
const (
	TransferRefused TransferPolicy = iota // default: REFUSED
	TransferOpen                          // anyone may transfer
)
