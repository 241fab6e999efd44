// Package zone implements the authoritative zone data model: building a
// zone from records, classifying names (authoritative data, delegation
// points, glue, empty non-terminals), signing the zone with either NSEC
// or NSEC3 denial of existence, and evaluating queries against the
// signed zone the way an authoritative server must (RFC 1034 §4.3.2,
// RFC 4035 §3.1, RFC 5155 §7).
//
// The paper's testbed (rfc9276-in-the-wild.com with its 49 subdomains)
// and every synthetic domain in the measurement population are built
// and served from this package.
package zone

import (
	"fmt"
	"sort"

	"repro/internal/dnswire"
)

// Zone is an unsigned zone: an apex plus a set of resource records.
type Zone struct {
	Apex dnswire.Name
	// TTL is the default TTL applied by convenience adders.
	TTL uint32
	// records maps owner name -> type -> records.
	records map[dnswire.Name]map[dnswire.Type][]dnswire.RR
}

// New creates an empty zone rooted at apex with a default TTL.
func New(apex dnswire.Name, ttl uint32) *Zone {
	return &Zone{
		Apex:    apex,
		TTL:     ttl,
		records: make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR),
	}
}

// Add inserts a record. The owner must be at or below the apex.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Apex) {
		return fmt.Errorf("zone: %s outside zone %s", rr.Name, z.Apex)
	}
	byType, ok := z.records[rr.Name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.records[rr.Name] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
	return nil
}

// MustAdd is Add that panics on error, for zone construction literals.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// AddData is a convenience wrapper building the RR from parts with the
// zone default TTL.
func (z *Zone) AddData(owner dnswire.Name, data dnswire.RData) error {
	return z.Add(dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: z.TTL, Data: data})
}

// Lookup returns the records of the given type at owner.
func (z *Zone) Lookup(owner dnswire.Name, t dnswire.Type) []dnswire.RR {
	return z.records[owner][t]
}

// TypesAt returns the set of types present at owner.
func (z *Zone) TypesAt(owner dnswire.Name) []dnswire.Type {
	byType := z.records[owner]
	out := make([]dnswire.Type, 0, len(byType))
	for t := range byType {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasName reports whether any record exists exactly at owner.
func (z *Zone) HasName(owner dnswire.Name) bool {
	_, ok := z.records[owner]
	return ok
}

// Names returns every owner name with records, canonically sorted.
func (z *Zone) Names() []dnswire.Name {
	out := make([]dnswire.Name, 0, len(z.records))
	for n := range z.records {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		return dnswire.CanonicalCompare(out[i], out[j]) < 0
	})
	return out
}

// Records returns all records at all names, canonically sorted by owner
// then type.
func (z *Zone) Records() []dnswire.RR {
	var out []dnswire.RR
	for _, n := range z.Names() {
		byType := z.records[n]
		types := make([]dnswire.Type, 0, len(byType))
		for t := range byType {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			out = append(out, byType[t]...)
		}
	}
	return out
}

// SOA returns the apex SOA data, if present.
func (z *Zone) SOA() (dnswire.SOA, bool) {
	rrs := z.Lookup(z.Apex, dnswire.TypeSOA)
	if len(rrs) == 0 {
		return dnswire.SOA{}, false
	}
	soa, ok := rrs[0].Data.(dnswire.SOA)
	return soa, ok
}

// DelegationPoint returns the deepest delegation point at or above
// name (strictly below the apex), if any: a name with an NS RRset that
// is not the apex. Records at or below a delegation point (other than
// the delegation NS and glue) are occluded.
func (z *Zone) DelegationPoint(name dnswire.Name) (dnswire.Name, bool) {
	// Every suffix of name longer than the apex is a candidate and the
	// highest cut on the path wins: walk up, keeping the last hit.
	var cut dnswire.Name
	for n := name.CountLabels() - z.Apex.CountLabels(); n > 0; n-- {
		if len(z.Lookup(name, dnswire.TypeNS)) > 0 {
			cut = name
		}
		name = name.Parent()
	}
	return cut, cut != ""
}

// IsDelegation reports whether name is a zone cut (NS below apex).
func (z *Zone) IsDelegation(name dnswire.Name) bool {
	return name != z.Apex && len(z.Lookup(name, dnswire.TypeNS)) > 0
}

// IsGlue reports whether owner's records are glue: address records at
// or below a delegation point.
func (z *Zone) IsGlue(owner dnswire.Name) bool {
	cut, ok := z.DelegationPoint(owner)
	return ok && owner != cut
}

// AuthoritativeNames returns the set of names the zone is authoritative
// for — every owner that is not glue — plus all empty non-terminals on
// the paths between them and the apex. Delegation points are included
// (they own NS and possibly DS). This is exactly the name set the NSEC
// and NSEC3 chains must cover (RFC 5155 §7.1 step 2 includes ENTs).
func (z *Zone) AuthoritativeNames() map[dnswire.Name]dnswire.TypeBitmap {
	names, _, _ := z.authoritativeNames()
	return names
}

// authoritativeNames is AuthoritativeNames and, from the same pass over
// the owners, whether any of them is a zone cut and whether any is a
// wildcard: in a zone with neither, DelegationPoint and WildcardAt find
// nothing for any name.
func (z *Zone) authoritativeNames() (names map[dnswire.Name]dnswire.TypeBitmap, cuts, wildcards bool) {
	names = make(map[dnswire.Name]dnswire.TypeBitmap, len(z.records))
	for owner, byType := range z.records {
		cut := z.IsDelegation(owner)
		cuts = cuts || cut
		wildcards = wildcards || owner.IsWildcard()
		if z.IsGlue(owner) {
			continue
		}
		types := make([]dnswire.Type, 0, len(byType))
		for t := range byType {
			// At a delegation point only NS and DS are authoritative
			// enough to appear in the bitmap (NS appears but unsigned).
			if cut && t != dnswire.TypeNS && t != dnswire.TypeDS {
				continue
			}
			types = append(types, t)
		}
		names[owner] = dnswire.NewTypeBitmap(types...)
		// Walk up to the apex inserting empty non-terminals.
		for p := owner.Parent(); p != z.Apex && p.IsSubdomainOf(z.Apex) && !p.IsRoot(); p = p.Parent() {
			if _, exists := names[p]; !exists {
				if _, hasRecords := z.records[p]; !hasRecords {
					names[p] = dnswire.NewTypeBitmap()
				}
			}
		}
	}
	return names, cuts, wildcards
}

// WildcardAt returns the closest wildcard owner applicable to qname: a
// "*" child of one of qname's ancestors within the zone, starting from
// the closest encloser (RFC 4592 §3.3.1). The wildcard only applies if
// no closer match exists; callers check existence separately.
func (z *Zone) WildcardAt(qname dnswire.Name) (dnswire.Name, bool) {
	for anc := qname.Parent(); anc.IsSubdomainOf(z.Apex) || anc == z.Apex; anc = anc.Parent() {
		w := anc.Wildcard()
		if z.HasName(w) {
			return w, true
		}
		// The wildcard at the closest encloser is the only candidate:
		// if the ancestor exists, stop (RFC 4592).
		if z.HasName(anc) {
			return "", false
		}
		if anc == z.Apex || anc.IsRoot() {
			break
		}
	}
	return "", false
}
