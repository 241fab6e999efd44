package zone

import (
	"sort"

	"repro/internal/dnswire"
)

// AllRecords returns the complete signed zone contents in AXFR order:
// the apex SOA first, then every data record, every RRSIG, and the
// denial chain (NSEC or NSEC3), and the apex SOA again last — the
// transfer format of RFC 5936 §2.2.
func (s *Signed) AllRecords() []dnswire.RR {
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

	// RRSIGs, grouped per owner/type in a stable order. The NSEC3
	// RRSIGs are kept beside the chain, not in s.rrsigs, and their
	// owners sort in among the zone's own names.
	owners := make([]dnswire.Name, 0, len(s.rrsigs)+len(s.nsec3Sigs))
	for owner := range s.rrsigs {
		owners = append(owners, owner)
	}
	for _, sig := range s.nsec3Sigs {
		if _, listed := s.rrsigs[sig.Name]; !listed {
			owners = append(owners, sig.Name)
		}
	}
	sort.Slice(owners, func(i, j int) bool {
		return dnswire.CanonicalCompare(owners[i], owners[j]) < 0
	})
	for _, owner := range owners {
		byType := s.rrsigs[owner]
		types := make([]dnswire.Type, 0, len(byType)+1)
		for t := range byType {
			types = append(types, t)
		}
		if len(s.RRSIGsFor(owner, dnswire.TypeNSEC3)) > 0 {
			types = append(types, dnswire.TypeNSEC3)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			out = append(out, s.RRSIGsFor(owner, t)...)
		}
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
	return out
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
