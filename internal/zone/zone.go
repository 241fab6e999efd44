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
	"slices"
	"sort"

	"repro/internal/dnswire"
)

// Zone is an unsigned zone: an apex plus a set of resource records.
type Zone struct {
	Apex dnswire.Name
	// TTL is the default TTL applied by convenience adders.
	TTL uint32
	// records maps each owner name to all of its records, grouped by
	// type in ascending type order and, within a type, in the order they
	// were added: one slice per owner, where a map per owner would cost
	// more than the records it holds. A slice Lookup has handed out never
	// changes: Add writes past it or into a new slice.
	records map[dnswire.Name][]dnswire.RR
}

// New creates an empty zone rooted at apex with a default TTL.
func New(apex dnswire.Name, ttl uint32) *Zone {
	return &Zone{
		Apex:    apex,
		TTL:     ttl,
		records: make(map[dnswire.Name][]dnswire.RR),
	}
}

// Add inserts a record. The owner must be at or below the apex.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Apex) {
		return fmt.Errorf("zone: %s outside zone %s", rr.Name, z.Apex)
	}
	rrs, t := z.records[rr.Name], rr.Type()
	i := len(rrs)
	for i > 0 && rrs[i-1].Type() > t {
		i--
	}
	if i == len(rrs) {
		z.records[rr.Name] = append(rrs, rr)
		return nil
	}
	// Before a later type: into a new slice, so the records after i do
	// not move under a reader holding them.
	grown := make([]dnswire.RR, 0, len(rrs)+1)
	grown = append(append(grown, rrs[:i]...), rr)
	z.records[rr.Name] = append(grown, rrs[i:]...)
	return nil
}

// MustAdd is Add that panics on error, for zone construction literals.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// Lookup returns the records of the given type at owner: the zone's own,
// capacity-limited, so appending to them copies.
func (z *Zone) Lookup(owner dnswire.Name, t dnswire.Type) []dnswire.RR {
	rrs := z.records[owner]
	i := 0
	for i < len(rrs) && rrs[i].Type() < t {
		i++
	}
	j := i
	for j < len(rrs) && rrs[j].Type() == t {
		j++
	}
	if i == j {
		return nil
	}
	return rrs[i:j:j]
}

// TypesAt returns the set of types present at owner.
func (z *Zone) TypesAt(owner dnswire.Name) []dnswire.Type {
	rrs := z.records[owner]
	return appendTypes(make([]dnswire.Type, 0, len(rrs)), rrs)
}

// appendTypes appends the distinct types of rrs, records grouped by
// type, to dst.
func appendTypes(dst []dnswire.Type, rrs []dnswire.RR) []dnswire.Type {
	for i, rr := range rrs {
		if i == 0 || rr.Type() != rrs[i-1].Type() {
			dst = append(dst, rr.Type())
		}
	}
	return dst
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
		out = append(out, z.records[n]...)
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
	var types []dnswire.Type
	for owner, rrs := range z.records {
		cut := z.IsDelegation(owner)
		cuts = cuts || cut
		wildcards = wildcards || owner.IsWildcard()
		if z.IsGlue(owner) {
			continue
		}
		types = appendTypes(types[:0], rrs)
		if cut {
			// At a delegation point only NS and DS are authoritative
			// enough to appear in the bitmap (NS appears but unsigned).
			types = slices.DeleteFunc(types, func(t dnswire.Type) bool {
				return t != dnswire.TypeNS && t != dnswire.TypeDS
			})
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
