package statewalk

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// BoundaryIterations are the counts straddling every vendor limit the
// respop catalogue documents (50/100/150) plus the RFC 5155 §10.3 cap —
// the values whose off-by-one behaviour the fuzz corpus pins.
var BoundaryIterations = []uint16{50, 51, 100, 101, 150, 151, 2500, 2501}

// CorpusSeed is one go-fuzz corpus entry minimized from a divergent
// topology: Target names the fuzz function, Name the corpus file, Body
// its "go test fuzz v1" encoding.
type CorpusSeed struct {
	Target string
	Name   string
	Body   []byte
}

// fuzzV1 encodes values in the Go fuzz corpus v1 format.
func fuzzV1(vals ...any) []byte {
	out := []byte("go test fuzz v1\n")
	for _, v := range vals {
		switch x := v.(type) {
		case []byte:
			out = append(out, fmt.Sprintf("[]byte(%q)\n", x)...)
		case string:
			out = append(out, fmt.Sprintf("string(%q)\n", x)...)
		case uint16:
			out = append(out, fmt.Sprintf("uint16(%d)\n", x)...)
		default:
			panic(fmt.Sprintf("statewalk: unsupported fuzz seed type %T", v))
		}
	}
	return out
}

// denialMessage synthesizes the wire form of the NXDOMAIN denial a
// topology's zone serves: question, SOA, and the three NSEC3 records of
// a closest-encloser proof at the topology's iteration count, each with
// an (unverifiable, structurally valid) RRSIG. The owners are real
// iterated hashes so decoder fuzzing starts from data shaped exactly
// like the boundary topologies that diverged.
func denialMessage(t TopologySpec) (*dnswire.Message, error) {
	apex := t.Apex()
	qname, qtype := t.Probe()
	p := nsec3.Params{Alg: dnswire.NSEC3HashSHA1, Iterations: t.Iterations}
	msg := &dnswire.Message{
		Header: dnswire.Header{
			ID:            uint16(0x5A00) ^ uint16(t.Index),
			Response:      true,
			Authoritative: true,
			RCode:         dnswire.RCodeNXDomain,
		},
		Questions: []dnswire.Question{{Name: qname, Type: qtype, Class: dnswire.ClassIN}},
	}
	msg.Authority = append(msg.Authority, dnswire.RR{
		Name: apex, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.SOA{
			MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"),
			Serial: 1, Refresh: 7200, Retry: 3600, Expire: 86400, Minimum: 300,
		},
	})
	// Closest encloser, next closer, wildcard — the §8.4 proof set.
	for _, covered := range []dnswire.Name{apex, qname, apex.Wildcard()} {
		owner, err := nsec3.OwnerName(covered, apex, p)
		if err != nil {
			return nil, err
		}
		next, err := nsec3.Hash(covered.MustChild("next"), p)
		if err != nil {
			return nil, err
		}
		msg.Authority = append(msg.Authority,
			dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.NSEC3{
					HashAlg: dnswire.NSEC3HashSHA1, Iterations: t.Iterations,
					NextHashedOwner: next,
					Types:           dnswire.NewTypeBitmap(dnswire.TypeSOA, dnswire.TypeRRSIG),
				}},
			dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.RRSIG{
					TypeCovered: dnswire.TypeNSEC3, Algorithm: dnswire.AlgECDSAP256SHA256,
					Labels: 2, OrigTTL: 300,
					Expiration: core.DefaultExpiration, Inception: core.DefaultInception,
					KeyTag: 0x5A5A, SignerName: apex,
					Signature: []byte("statewalk-fixed-placeholder-signature-64-bytes-padding-xxxxxxxxx"),
				}})
	}
	return msg, nil
}

// SeedsForTopology minimizes one topology into corpus seeds for the two
// fuzz targets its wire data exercises: the packed denial message for
// FuzzDecodeMessage and the probe's (name, iterations, salt) tuple for
// FuzzHash. Seeds are byte-deterministic (fixed IDs, fixed signature
// placeholder), so committing them is reproducible.
func SeedsForTopology(t TopologySpec) ([]CorpusSeed, error) {
	msg, err := denialMessage(t)
	if err != nil {
		return nil, fmt.Errorf("statewalk: corpus for %s: %w", t.ID(), err)
	}
	wire, err := msg.Pack()
	if err != nil {
		return nil, fmt.Errorf("statewalk: corpus for %s: %w", t.ID(), err)
	}
	qname, _ := t.Probe()
	base := fmt.Sprintf("statewalk-%s", t.ID())
	return []CorpusSeed{
		{Target: "FuzzDecodeMessage", Name: base, Body: fuzzV1(wire)},
		{Target: "FuzzHash", Name: base, Body: fuzzV1(qname.String(), t.Iterations, []byte{})},
	}, nil
}

// BoundarySeeds are the committed corpus seeds: one pair per boundary
// iteration count, derived from the secure-NX topologies straddling the
// vendor limits (the topologies whose divergences motivated the fixes
// in this tree).
func BoundarySeeds() ([]CorpusSeed, error) {
	byIter := make(map[uint16]TopologySpec)
	for _, tp := range Enumerate() {
		if tp.Shape == ShapeSecureNX {
			byIter[tp.Iterations] = tp
		}
	}
	var out []CorpusSeed
	for _, it := range BoundaryIterations {
		tp, ok := byIter[it]
		if !ok {
			return nil, fmt.Errorf("statewalk: no secure-nx topology at %d iterations", it)
		}
		seeds, err := SeedsForTopology(tp)
		if err != nil {
			return nil, err
		}
		out = append(out, seeds...)
	}
	return out, nil
}

// WriteSeeds materializes seeds under dir using the go fuzz corpus
// layout (dir/<Target>/<Name>). Existing identical files are left
// untouched so repeated runs are idempotent.
func WriteSeeds(dir string, seeds []CorpusSeed) error {
	for _, s := range seeds {
		d := filepath.Join(dir, s.Target)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		path := filepath.Join(d, s.Name)
		if old, err := os.ReadFile(path); err == nil && string(old) == string(s.Body) {
			continue
		}
		if err := os.WriteFile(path, s.Body, 0o644); err != nil {
			return err
		}
	}
	return nil
}
