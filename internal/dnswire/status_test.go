package dnswire

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// checkReplyStatus is ReadReplyStatus's contract against Unpack:
// wherever Unpack decodes the octets the reader reads them too, and its
// status is the decoded Message's. The reader must not write to its
// input. It returns the reader's error.
func checkReplyStatus(t testing.TB, wire []byte) error {
	t.Helper()
	in := bytes.Clone(wire)
	got, err := ReadReplyStatus(in)
	if !bytes.Equal(in, wire) {
		t.Fatalf("ReadReplyStatus wrote to its input\n in  %x\n now %x", wire, in)
	}
	m, uerr := Unpack(wire)
	if uerr != nil {
		return err
	}
	if err != nil {
		t.Fatalf("ReadReplyStatus refused what Unpack decodes (%v)\n wire %x", err, wire)
	}
	if want := m.ReplyStatus(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadReplyStatus %+v, Unpack's ReplyStatus %+v\n wire %x", got, want, wire)
	}
	return nil
}

// committedCorpus reads the inputs committed under testdata/fuzz/<name>,
// each a one-[]byte file in the go test fuzz v1 encoding.
func committedCorpus(t testing.TB, name string) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-[]byte go test fuzz v1 file", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// replyStatusRows are hand-built replies with the status each must
// read as: where the OPT the status comes from may and may not be.
func replyStatusRows(t testing.TB) []struct {
	name string
	wire []byte
	want ReplyStatus
} {
	t.Helper()
	name := MustParseName("www.example.com")
	question := []Question{{Name: name, Type: TypeA, Class: ClassIN}}
	a := RR{Name: name, Class: ClassIN, TTL: 1, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}
	opt := func(ext uint8, edes ...EDE) RR {
		return (&OPT{UDPSize: 1232, DO: true, ExtRCodeHigh: ext, EDEs: edes}).AsRR()
	}
	limit := EDE{Code: EDEUnsupportedNSEC3Iter, Text: "limit 150"}
	bogus := EDE{Code: EDEDNSSECBogus, Text: "second"}
	hdr := Header{ID: 0x4001, Response: true, RecursionDesired: true, RecursionAvailable: true, RCode: RCodeNXDomain}
	adHdr := hdr
	adHdr.AuthenticatedData = true
	rows := []struct {
		name string
		m    Message
		want ReplyStatus
	}{
		{"no OPT", Message{Header: adHdr, Questions: question},
			ReplyStatus{Header: adHdr, RCode: RCodeNXDomain}},
		{"OPT without EDE", Message{Header: adHdr, Questions: question, Answers: []RR{a}, Additional: []RR{opt(0)}},
			ReplyStatus{Header: adHdr, RCode: RCodeNXDomain}},
		{"extended RCODE bits", Message{Header: hdr, Questions: question, Additional: []RR{opt(2)}},
			ReplyStatus{Header: hdr, RCode: RCodeNXDomain | 2<<4}},
		{"EDE with text behind other additional records", Message{Header: hdr, Questions: question,
			Authority: []RR{a}, Additional: []RR{a, a, opt(0, limit)}},
			ReplyStatus{Header: hdr, RCode: RCodeNXDomain, EDEs: []EDE{limit}}},
		{"the first of two OPTs", Message{Header: hdr, Questions: question, Additional: []RR{opt(1, limit), opt(3, bogus)}},
			ReplyStatus{Header: hdr, RCode: RCodeNXDomain | 1<<4, EDEs: []EDE{limit}}},
		{"an OPT in the authority section is not the reply's", Message{Header: hdr, Questions: question,
			Authority: []RR{opt(1, bogus)}},
			ReplyStatus{Header: hdr, RCode: RCodeNXDomain}},
		{"an OPT in the answer section is not the reply's", Message{Header: hdr, Questions: question,
			Answers: []RR{opt(1, bogus)}, Additional: []RR{opt(0, limit)}},
			ReplyStatus{Header: hdr, RCode: RCodeNXDomain, EDEs: []EDE{limit}}},
		{"the additional OPT after one in the authority section", Message{Header: hdr, Questions: question,
			Authority: []RR{opt(3, bogus)}, Additional: []RR{opt(1, limit)}},
			ReplyStatus{Header: hdr, RCode: RCodeNXDomain | 1<<4, EDEs: []EDE{limit}}},
	}
	out := make([]struct {
		name string
		wire []byte
		want ReplyStatus
	}, len(rows))
	for i, r := range rows {
		out[i].name, out[i].wire, out[i].want = r.name, mustPack(t, &r.m), r.want
	}
	return out
}

// TestReadReplyStatus: each hand-built reply reads as its row says and
// as Unpack reads it; served responses, hostile wire and every prefix
// of them hold to the contract; and octets that do not end with the
// last record are refused.
func TestReadReplyStatus(t *testing.T) {
	var wires [][]byte
	for _, row := range replyStatusRows(t) {
		got, err := ReadReplyStatus(row.wire)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
		} else if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: %+v, want %+v", row.name, got, row.want)
		}
		checkReplyStatus(t, row.wire)
		wires = append(wires, row.wire)
	}
	served := servedCorpus(t)
	for _, wire := range served {
		if err := checkReplyStatus(t, wire); err != nil {
			t.Fatalf("served response refused: %v\n wire %x", err, wire)
		}
	}
	for _, wire := range hostileMessages() {
		wires = append(wires, wire)
	}
	for _, wire := range append(wires, served[:40]...) {
		for cut := 0; cut <= len(wire); cut++ {
			checkReplyStatus(t, wire[:cut:cut]) // a read past it panics
		}
	}
	nxdomain, _ := benchResponses(t)
	if _, err := ReadReplyStatus(append(bytes.Clone(nxdomain), 0)); err == nil {
		t.Error("a reply with an octet after its last record was read")
	}
	// The reader skips what it does not read: an A record whose RDATA
	// is three octets is Unpack's to refuse, not the status's.
	bad := newWire(0, 1, 0, 0).raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN)).u32(1).u16(3).raw(1, 2, 3).b
	if _, err := Unpack(bad); err == nil {
		t.Fatal("Unpack decoded a three-octet A record")
	}
	if _, err := ReadReplyStatus(bad); err != nil {
		t.Errorf("a record the status does not read was parsed: %v", err)
	}
}

// FuzzReplyStatusDifferential holds ReadReplyStatus to
// Unpack(...).ReplyStatus() wherever Unpack succeeds, starting from
// FuzzDecodeMessage's seeds and committed corpus, the served corpus and
// the hand-built rows.
func FuzzReplyStatusDifferential(f *testing.F) {
	seeds := append(decodeMessageSeeds(f), committedCorpus(f, "FuzzDecodeMessage")...)
	seeds = append(seeds, servedCorpus(f)...)
	for _, row := range replyStatusRows(f) {
		seeds = append(seeds, row.wire)
	}
	for _, wire := range seeds {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplyStatus(t, data)
	})
}
