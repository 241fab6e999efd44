package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// fuzzSeedMessages packs a few representative messages so the fuzzer
// starts from structurally valid wire data instead of pure noise; the
// benchmark's two responses among them reach the name memo's suffix
// entries and pointer shortcut from the first run.
func fuzzSeedMessages(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	q := &Message{
		Header:    Header{ID: 0x1234, RecursionDesired: true},
		Questions: []Question{{Name: MustParseName("example.com"), Type: TypeNSEC3PARAM, Class: ClassIN}},
	}
	if wire, err := q.Pack(); err == nil {
		seeds = append(seeds, wire)
	}
	resp := &Message{
		Header:    Header{ID: 0x1234, Response: true, Authoritative: true},
		Questions: []Question{{Name: MustParseName("example.com"), Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: MustParseName("example.com"), Class: ClassIN, TTL: 300, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}},
			{Name: MustParseName("example.com"), Class: ClassIN, Data: NSEC3PARAM{HashAlg: NSEC3HashSHA1, Iterations: 10, Salt: []byte{0xAA, 0xBB}}},
		},
	}
	if wire, err := resp.Pack(); err == nil {
		seeds = append(seeds, wire)
	}
	nxdomain, positive := benchResponses(f)
	return append(seeds, nxdomain, positive)
}

// decodeMessageSeeds is what FuzzDecodeMessage adds to its committed
// corpus (testdata/fuzz/FuzzDecodeMessage).
func decodeMessageSeeds(f *testing.F) [][]byte {
	f.Helper()
	seeds := fuzzSeedMessages(f)
	// Among them pointers to label boundaries inside the question and
	// pointer chains of exactly maxPointers, through the memo and not.
	for _, wire := range hostileMessages() {
		seeds = append(seeds, wire)
	}
	return append(seeds,
		[]byte{},
		bytes.Repeat([]byte{0xC0}, 32), // compression-pointer soup
		// An OPT whose TTL sets flag bits after DO, which no sender
		// should: OPT.Z must carry them through the re-render. Its
		// extended RCODE bits are 1.
		newWire(0, 0, 0, 1).raw(0).u16(uint16(TypeOPT)).u16(1232).u32(0x0180_C001).u16(0).b)
}

// FuzzDecodeMessage asserts the codec's core robustness contract: no
// input, however malformed, may panic the decoder, and any message it
// accepts must survive re-encoding and decode from it to the same
// Message.
func FuzzDecodeMessage(f *testing.F) {
	for _, wire := range decodeMessageSeeds(f) {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		back, err := Unpack(wire)
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v\n wire %x\n re-encoded %x", err, data, wire)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("re-encoded message decodes differently\n got  %#v\n want %#v\n wire %x", back, m, data)
		}
	})
}

// FuzzDecodeName targets the name decompressor directly, including
// arbitrary (negative, huge) start offsets and pointer cycles.
func FuzzDecodeName(f *testing.F) {
	for _, wire := range fuzzSeedMessages(f) {
		f.Add(wire, 12) // first name in a message starts after the header
	}
	f.Add([]byte{3, 'w', 'w', 'w', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0) // self-pointing compression pointer
	f.Add([]byte{1, 'a', 0}, -5)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		name, _, err := readName(data, off)
		if err != nil {
			return
		}
		// A name the decoder accepts must be encodable again.
		if got := name.AppendWire(nil); len(got) == 0 {
			t.Fatalf("decoded name %q re-encoded to nothing", name)
		}
	})
}
