package dnswire

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// readName decodes one name with no message around it: a walk with the
// full pointer budget and a memo of its own.
func readName(msg []byte, off int) (Name, int, error) {
	var memo nameMemo
	n, next, _, err := memo.walk(msg, off, maxPointers)
	return n, next, err
}

func TestParseNameBasics(t *testing.T) {
	cases := []struct {
		in      string
		want    Name
		wantErr bool
	}{
		{"", Root, false},
		{".", Root, false},
		{"example.com", "example.com.", false},
		{"example.com.", "example.com.", false},
		{"ExAmPlE.CoM.", "example.com.", false},
		{"www.example.com", "www.example.com.", false},
		{"*.example.com", "*.example.com.", false},
		{`a\.b.example.com`, `a\.b.example.com.`, false},
		{`a\046b.example.com`, `a\.b.example.com.`, false},
		{"a..b", "", true},
		{"..", "", true},
		{strings.Repeat("a", 64) + ".com", "", true},
		{`bad\`, "", true},
		{`bad\25`, "", true},
		{`bad\999`, "", true},
	}
	for _, c := range cases {
		got, err := ParseName(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseName(%q): want error, got %q", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseName(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNameTooLong(t *testing.T) {
	// 128 labels of 1 char = 2*128+1 = 257 > 255.
	long := strings.Repeat("a.", 128)
	if _, err := ParseName(long); err == nil {
		t.Fatalf("expected ErrNameTooLong for %d-octet name", len(long)+1)
	}
}

func TestLabelsAndParent(t *testing.T) {
	n := MustParseName("www.example.com")
	if got := n.Labels(); !reflect.DeepEqual(got, []string{"www", "example", "com"}) {
		t.Fatalf("Labels = %v", got)
	}
	if p := n.Parent(); p != "example.com." {
		t.Fatalf("Parent = %q", p)
	}
	if p := Root.Parent(); p != Root {
		t.Fatalf("Parent(root) = %q", p)
	}
	if n.CountLabels() != 3 || Root.CountLabels() != 0 {
		t.Fatal("CountLabels wrong")
	}
}

func TestChildAndWildcard(t *testing.T) {
	z := MustParseName("example.com")
	c, err := z.Child("API")
	if err != nil || c != "api.example.com." {
		t.Fatalf("Child = %q, %v", c, err)
	}
	w := z.Wildcard()
	if w != "*.example.com." || !w.IsWildcard() {
		t.Fatalf("Wildcard = %q", w)
	}
	if z.IsWildcard() {
		t.Fatal("z should not be wildcard")
	}
}

func TestIsSubdomainOf(t *testing.T) {
	cases := []struct {
		n, zone string
		want    bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", ".", true},
		{"example.com", "com", true},
		{"example.org", "example.com", false},
		{"anexample.com", "example.com", false}, // label boundary matters
		{"com", "example.com", false},
	}
	for _, c := range cases {
		got := MustParseName(c.n).IsSubdomainOf(MustParseName(c.zone))
		if got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", c.n, c.zone, got, c.want)
		}
	}
}

func TestCanonicalCompareRFC4034Example(t *testing.T) {
	// The canonically ordered list from RFC 4034 §6.1.
	ordered := []Name{
		MustParseName("example"),
		MustParseName("a.example"),
		MustParseName("yljkjljk.a.example"),
		MustParseName("z.a.example"),
		MustParseName(`zabc.a.example`),
		MustParseName("z.example"),
		MustParseName(`\001.z.example`),
		MustParseName("*.z.example"),
		MustParseName(`\200.z.example`),
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := CanonicalCompare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("CanonicalCompare(%q,%q) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCanonicalCompareSortStability(t *testing.T) {
	names := []Name{
		MustParseName("b.com"), MustParseName("a.com"), MustParseName("com"),
		MustParseName("z.a.com"), MustParseName("a.b.com"),
	}
	sort.Slice(names, func(i, j int) bool { return CanonicalCompare(names[i], names[j]) < 0 })
	want := []Name{"com.", "a.com.", "z.a.com.", "b.com.", "a.b.com."}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("sorted = %v, want %v", names, want)
	}
}

func TestNameWireRoundTrip(t *testing.T) {
	for _, s := range []string{".", "com", "example.com", "www.a.very.deep.example.com", `q\.x.example.`} {
		n := MustParseName(s)
		wire := n.AppendWire(nil)
		got, off, err := readName(wire, 0)
		if err != nil {
			t.Fatalf("readName(%q): %v", s, err)
		}
		if got != n || off != len(wire) {
			t.Fatalf("round trip %q: got %q, off %d of %d", s, got, off, len(wire))
		}
		if n.WireLen() != len(wire) {
			t.Fatalf("WireLen(%q) = %d, wire is %d", s, n.WireLen(), len(wire))
		}
	}
}

func TestReadNameCompressed(t *testing.T) {
	// Manually build: at offset 0: "example.com." ; at offset 13: "www" + ptr->0.
	var msg []byte
	msg = MustParseName("example.com").AppendWire(msg)
	start := len(msg)
	msg = append(msg, 3, 'w', 'w', 'w', 0xC0, 0x00)
	n, off, err := readName(msg, start)
	if err != nil {
		t.Fatal(err)
	}
	if n != "www.example.com." {
		t.Fatalf("got %q", n)
	}
	if off != len(msg) {
		t.Fatalf("off = %d, want %d", off, len(msg))
	}
}

func TestReadNamePointerLoops(t *testing.T) {
	// Self-pointer must be rejected (forward/self pointers are invalid).
	msg := []byte{0xC0, 0x00}
	if _, _, err := readName(msg, 0); err == nil {
		t.Fatal("self-pointer accepted")
	}
	// Forward pointer.
	msg2 := []byte{0xC0, 0x04, 0, 0, 3, 'a', 'b', 'c', 0}
	if _, _, err := readName(msg2, 0); err == nil {
		t.Fatal("forward pointer accepted")
	}
	// Truncated label.
	msg3 := []byte{5, 'a', 'b'}
	if _, _, err := readName(msg3, 0); err == nil {
		t.Fatal("truncated label accepted")
	}
	// Reserved label type.
	msg4 := []byte{0x80, 0x01}
	if _, _, err := readName(msg4, 0); err == nil {
		t.Fatal("reserved label type accepted")
	}
}

// randomName generates a structurally valid random name for property tests.
func randomName(r *rand.Rand) Name {
	nLabels := r.Intn(5)
	labels := make([]string, nLabels)
	for i := range labels {
		l := make([]byte, 1+r.Intn(12))
		for j := range l {
			// Mix printable and binary octets.
			if r.Intn(4) == 0 {
				l[j] = byte(r.Intn(256))
			} else {
				l[j] = "abcdefghijklmnopqrstuvwxyz0123456789-"[r.Intn(37)]
			}
		}
		labels[i] = string(l)
	}
	n, err := fromLabels(labels)
	if err != nil {
		return Root
	}
	return n
}

func TestPropNamePresentationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		back, err := ParseName(n.String())
		return err == nil && back == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropNameWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		wire := n.AppendWire(nil)
		back, off, err := readName(wire, 0)
		return err == nil && back == n && off == len(wire)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCanonicalCompareIsOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomName(r), randomName(r), randomName(r)
		// Antisymmetry.
		if CanonicalCompare(a, b) != -CanonicalCompare(b, a) {
			return false
		}
		// Reflexivity.
		if CanonicalCompare(a, a) != 0 {
			return false
		}
		// Transitivity (a<=b && b<=c => a<=c).
		if CanonicalCompare(a, b) <= 0 && CanonicalCompare(b, c) <= 0 &&
			CanonicalCompare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCanonicalCompareMatchesLabelSplit checks the in-place
// comparison against the definition it replaced: split both names into
// raw labels and compare those right to left. Pairs share a random
// suffix so that the comparison regularly runs several labels deep.
func TestPropCanonicalCompareMatchesLabelSplit(t *testing.T) {
	bySplit := func(a, b Name) int {
		al, bl := a.Labels(), b.Labels()
		for i, j := len(al)-1, len(bl)-1; i >= 0 || j >= 0; i, j = i-1, j-1 {
			switch {
			case i < 0:
				return -1
			case j < 0:
				return 1
			}
			if c := strings.Compare(al[i], bl[j]); c != 0 {
				return c
			}
		}
		return 0
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		suffix := randomName(r).Labels()
		a, errA := fromLabels(append(randomName(r).Labels(), suffix...))
		b, errB := fromLabels(append(randomName(r).Labels(), suffix...))
		return errA != nil || errB != nil || CanonicalCompare(a, b) == bySplit(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEscapeRoundTripBinaryLabel(t *testing.T) {
	n, err := fromLabels([]string{string([]byte{0, 1, '.', '\\', 255, 'a'}), "example"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseName(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != n {
		t.Fatalf("escape round trip: %q != %q", back, n)
	}
}

// TestChildFoldsASCIIOnly names the three ways Child's old Unicode
// folding (strings.ToLower) disagreed with every other constructor:
// an invalid UTF-8 octet became U+FFFD, a non-ASCII letter was folded,
// and the Kelvin sign collapsed onto 'k' — two wire names became one.
func TestChildFoldsASCIIOnly(t *testing.T) {
	apex := MustParseName("example.com")
	for _, label := range []string{"\xff", "É", "K\u212A", "Ab.C\\d", "*"} {
		got, err := apex.Child(label)
		want, wantErr := FromLabels(label, "example", "com")
		if err != nil || wantErr != nil || got != want {
			t.Errorf("Child(%q) = %q, %v; FromLabels gives %q, %v", label, got, err, want, wantErr)
		}
		if back := got.Labels()[0]; back != lowerLabel(label) {
			t.Errorf("Child(%q) round-trips to label %q", label, back)
		}
	}
	if a, b := apex.MustChild("K\u212A"), apex.MustChild("kk"); a == b {
		t.Errorf("Child folds the Kelvin sign onto k: %q", a)
	}
	if n := apex.MustChild("\xff"); n != `\255.example.com.` {
		t.Errorf(`Child("\xff") = %q`, n)
	}
}

// TestPropChildMatchesFromLabels is Child's contract: the same name or
// the same error as assembling the labels from scratch, over raw
// labels with binary octets, dots, backslashes, upper case, the
// 63/64-octet label boundary and parents at the 255-octet name
// boundary.
func TestPropChildMatchesFromLabels(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	randLabel := func(n int) string {
		l := make([]byte, n)
		for j := range l {
			switch r.Intn(6) {
			case 0:
				l[j] = byte(0x80 + r.Intn(0x80))
			case 1:
				l[j] = ".\\ \x00*"[r.Intn(5)]
			case 2:
				l[j] = byte('A' + r.Intn(26))
			default:
				l[j] = "abcdefghijklmnopqrstuvwxyz0123456789-"[r.Intn(37)]
			}
		}
		return string(l)
	}
	// Parents of every wire length up to the limit: 1 (root) … 255.
	parents := []Name{Root, ""}
	for i := 0; i < 300; i++ {
		parents = append(parents, randomName(r))
	}
	for wire := 240; wire <= MaxNameWireLen; wire++ {
		// Labels of 63 octets, then one sized to land on wire exactly.
		var labels []string
		for left := wire - 1; left > 0; {
			n := min(left-1, MaxLabelLen)
			if n == 0 { // one octet left cannot hold a label
				labels[len(labels)-1] = labels[len(labels)-1][1:]
				n = 1
			}
			labels = append(labels, randLabel(n))
			left -= 1 + n
		}
		p, err := FromLabels(labels...)
		if err != nil || p.WireLen() != wire {
			t.Fatalf("building a %d-octet parent: %q (%d), %v", wire, p, p.WireLen(), err)
		}
		parents = append(parents, p)
	}
	for _, p := range parents {
		for _, n := range []int{0, 1, 2, 5, 13, 62, 63, 64, 70} {
			label := randLabel(n)
			got, err := p.Child(label)
			want, wantErr := FromLabels(append([]string{label}, p.Labels()...)...)
			if got != want || err != wantErr {
				t.Fatalf("%q.Child(%q) = %q, %v; FromLabels gives %q, %v", p, label, got, err, want, wantErr)
			}
		}
	}
}

// TestChildSingleAlloc: the result string is the only allocation, even
// when the label needs escaping and folding.
func TestChildSingleAlloc(t *testing.T) {
	apex := MustParseName("www.example.com")
	for _, label := range []string{"probe", "A.b\xff"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := apex.Child(label); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("Child(%q) allocates %.1f times per run, want 1", label, n)
		}
	}
}
