package dnssec

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dnswire"
)

// referenceSignedData builds the signed octets the slow, obvious way:
// the owner split into labels to find the wildcard form, every RDATA
// rendered into a slice of its own, sorted, de-duplicated, and the
// owner's wire form copied before each. signedData must produce these
// octets exactly — they are what every signature in every zone covers
// and what dnssec.VerifyMemo keys on.
func referenceSignedData(set RRset, sig dnswire.RRSIG) ([]byte, error) {
	labels := set.Name.Labels()
	if int(sig.Labels) > len(labels) {
		return nil, fmt.Errorf("dnssec: RRSIG labels %d exceeds owner %s", sig.Labels, set.Name)
	}
	owner := set.Name
	if int(sig.Labels) < len(labels) {
		var err error
		owner, err = dnswire.FromLabels(append([]string{"*"}, labels[len(labels)-int(sig.Labels):]...)...)
		if err != nil {
			return nil, err
		}
	}
	rdatas := make([][]byte, len(set.Datas))
	for i, d := range set.Datas {
		rdatas[i] = dnswire.AppendRData(nil, d)
	}
	sort.Slice(rdatas, func(i, j int) bool { return bytes.Compare(rdatas[i], rdatas[j]) < 0 })
	withoutSig := sig
	withoutSig.Signature = nil
	out := dnswire.AppendRData(nil, withoutSig)
	ownerWire := owner.AppendWire(nil)
	for i, rd := range rdatas {
		if i > 0 && bytes.Equal(rdatas[i-1], rd) {
			continue // RFC 4034 §6.3: duplicates count once
		}
		out = append(out, ownerWire...)
		t := set.Type()
		out = append(out, byte(t>>8), byte(t), byte(set.Class>>8), byte(set.Class))
		out = append(out, byte(sig.OrigTTL>>24), byte(sig.OrigTTL>>16), byte(sig.OrigTTL>>8), byte(sig.OrigTTL))
		out = append(out, byte(len(rd)>>8), byte(len(rd)))
		out = append(out, rd...)
	}
	return out, nil
}

// signedData is appendSignedData behind a few octets already in the
// buffer, as verify calls it behind the memo key's prefix: it checks
// they are left as they were and returns the signed octets alone.
func signedData(set RRset, sig dnswire.RRSIG) ([]byte, error) {
	front := []byte{0xA5, 0x5A, 0xA5}
	b, err := appendSignedData(append([]byte(nil), front...), set, sig)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(b[:len(front)], front) {
		return nil, fmt.Errorf("appendSignedData overwrote the octets before it: %x", b[:len(front)])
	}
	return b[len(front):], nil
}

func TestSignedDataMatchesReference(t *testing.T) {
	apex := dnswire.MustParseName("example.com")
	a := func(ip string) dnswire.RData { return dnswire.A{Addr: netip.MustParseAddr(ip)} }
	sigFor := func(t dnswire.Type, labels uint8) dnswire.RRSIG {
		return dnswire.RRSIG{
			TypeCovered: t, Algorithm: dnswire.AlgECDSAP256SHA256, Labels: labels, OrigTTL: 300,
			Expiration: testExpiration, Inception: testInception, KeyTag: 4711, SignerName: apex,
			Signature: bytes.Repeat([]byte{0xEE}, 64), // must not be covered
		}
	}
	www := apex.MustChild("www")
	deep := dnswire.MustParseName(`x\.y.a.wild.example.com`)
	for _, tc := range []struct {
		name   string
		set    RRset
		labels uint8
	}{
		{"single RDATA", RRset{Name: www, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{a("192.0.2.1")}}, 3},
		{"apex", RRset{Name: apex, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{a("192.0.2.1")}}, 2},
		{"root owner", RRset{Name: dnswire.Root, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{dnswire.NS{Host: apex}}}, 0},
		{"multi RDATA, unsorted", RRset{Name: www, Class: dnswire.ClassIN, TTL: 300,
			Datas: []dnswire.RData{a("192.0.2.9"), a("192.0.2.1"), a("10.0.0.1")}}, 3},
		{"duplicate RDATAs", RRset{Name: www, Class: dnswire.ClassIN, TTL: 300,
			Datas: []dnswire.RData{a("192.0.2.9"), a("192.0.2.1"), a("192.0.2.9"), a("192.0.2.1")}}, 3},
		{"two equal RDATAs", RRset{Name: www, Class: dnswire.ClassIN, TTL: 300,
			Datas: []dnswire.RData{a("192.0.2.1"), a("192.0.2.1")}}, 3},
		{"names in RDATA", RRset{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Datas: []dnswire.RData{
			dnswire.MX{Preference: 20, Host: apex.MustChild("mx2")}, dnswire.MX{Preference: 10, Host: apex.MustChild("mx1")}}}, 2},
		{"NSEC3", RRset{Name: apex.MustChild("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"), Class: dnswire.ClassIN, TTL: 300,
			Datas: []dnswire.RData{dnswire.NSEC3{HashAlg: dnswire.NSEC3HashSHA1, Iterations: 5, Salt: []byte{1, 2},
				NextHashedOwner: bytes.Repeat([]byte{7}, 20), Types: dnswire.NewTypeBitmap(dnswire.TypeA, dnswire.TypeRRSIG)}}}, 3},
		{"wildcard-expanded owner", RRset{Name: deep, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{a("192.0.2.77")}}, 3},
		{"wildcard-expanded to the root", RRset{Name: www, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{a("192.0.2.77")}}, 0},
		{"wildcard owner itself", RRset{Name: apex.MustChild("wild").Wildcard(), Class: dnswire.ClassIN, TTL: 300,
			Datas: []dnswire.RData{a("192.0.2.77")}}, 3},
		{"labels exceed owner", RRset{Name: www, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{a("192.0.2.1")}}, 4},
		{"labels exceed the root", RRset{Name: dnswire.Root, Class: dnswire.ClassIN, TTL: 300, Datas: []dnswire.RData{dnswire.NS{Host: apex}}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sig := sigFor(tc.set.Type(), tc.labels)
			before := append([]dnswire.RData(nil), tc.set.Datas...)
			got, gotErr := signedData(tc.set, sig)
			want, wantErr := referenceSignedData(tc.set, sig)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("signedData err = %v, reference err = %v", gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("signed octets differ\n got  %x\n want %x", got, want)
			}
			if !reflect.DeepEqual(before, tc.set.Datas) {
				t.Fatal("signedData reordered the caller's RRset")
			}
		})
	}
}

// fuzzRDatas splits b into RDATAs, each a length octet followed by up
// to that many octets, at most 32 of them.
func fuzzRDatas(b []byte) []dnswire.RData {
	var out []dnswire.RData
	for len(b) > 0 && len(out) < 32 {
		n := min(int(b[0]), len(b)-1)
		out = append(out, dnswire.Generic{T: dnswire.TypeTXT, Data: b[1 : 1+n]})
		b = b[1+n:]
	}
	return out
}

// FuzzSignedDataDifferential holds signedData to referenceSignedData
// over arbitrary owners, RRSIG Labels values and RDATA sets: duplicates,
// RDATAs one of which is a prefix of another, empty ones, wildcard and
// wildcard-expanded owners. The octets, or the error text, must agree,
// and the caller's RRset must keep its order.
func FuzzSignedDataDifferential(f *testing.F) {
	for _, seed := range []struct {
		owner  string
		labels uint8
		rdatas string
	}{
		{"www.example.com", 3, "\x03abc"},
		{"www.example.com", 3, "\x03abc\x02ab\x03abc\x02ab"},
		{"www.example.com", 3, "\x02ab\x03abc\x01a\x00\x04abcd"},
		{"www.example.com", 3, "\x03abd\x03abc\x04abc\x00"},
		{"x.y.wild.example.com", 3, "\x02ab\x03abc"},
		{"*.wild.example.com", 3, "\x01a\x01a"},
		{"*.wild.example.com", 2, "\x01a"},
		{"www.example.com", 0, "\x01z\x01a"},
		{"www.example.com", 4, "\x01a"},
		{".", 0, "\x05hello\x05hello"},
	} {
		f.Add(seed.owner, seed.labels, uint32(300), uint16(dnswire.ClassIN), []byte(seed.rdatas))
	}
	f.Fuzz(func(t *testing.T, owner string, labels uint8, origTTL uint32, class uint16, rdatas []byte) {
		name, err := dnswire.ParseName(owner)
		if err != nil {
			return
		}
		datas := fuzzRDatas(rdatas)
		if len(datas) == 0 {
			return
		}
		set := RRset{Name: name, Class: dnswire.Class(class), TTL: origTTL, Datas: datas}
		sig := dnswire.RRSIG{
			TypeCovered: dnswire.TypeTXT, Algorithm: dnswire.AlgECDSAP256SHA256, Labels: labels, OrigTTL: origTTL,
			Expiration: testExpiration, Inception: testInception, KeyTag: 4711, SignerName: dnswire.MustParseName("example.com"),
			Signature: bytes.Repeat([]byte{0xEE}, 64),
		}
		before := append([]dnswire.RData(nil), datas...)
		got, gotErr := signedData(set, sig)
		want, wantErr := referenceSignedData(set, sig)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("signedData err = %v, reference err = %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("signed octets differ\n got  %x\n want %x", got, want)
		}
		if !reflect.DeepEqual(before, set.Datas) {
			t.Fatal("signedData reordered the caller's RRset")
		}
	})
}
