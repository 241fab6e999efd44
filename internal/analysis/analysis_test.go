package analysis

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dnswire"
	"repro/internal/testbed"
)

func TestCDFBasics(t *testing.T) {
	c := CDFFromHist(map[int]int{0: 10, 1: 60, 8: 20, 100: 9, 500: 1})
	if c.Total() != 100 {
		t.Fatalf("total %d", c.Total())
	}
	cases := []struct {
		x    int
		want float64
	}{
		{-1, 0}, {0, 0.10}, {1, 0.70}, {7, 0.70}, {8, 0.90},
		{99, 0.90}, {100, 0.99}, {499, 0.99}, {500, 1.0}, {10000, 1.0},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%d) = %f, want %f", cse.x, got, cse.want)
		}
	}
	if c.Max() != 500 {
		t.Fatalf("Max = %d", c.Max())
	}
	if c.Percentile(0.5) != 1 || c.Percentile(0.999) != 500 || c.Percentile(0.9) != 8 {
		t.Fatalf("percentiles: %d %d %d", c.Percentile(0.5), c.Percentile(0.999), c.Percentile(0.9))
	}
}

func TestCDFEmpty(t *testing.T) {
	c := CDFFromHist(nil)
	if c.At(5) != 0 || c.Max() != 0 || c.Percentile(0.5) != 0 {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestPropCDFMonotone(t *testing.T) {
	f := func(raw map[uint8]uint8) bool {
		hist := map[int]int{}
		for k, v := range raw {
			if v > 0 {
				hist[int(k)] = int(v)
			}
		}
		c := CDFFromHist(hist)
		prev := 0.0
		for x := -1; x <= 260; x++ {
			cur := c.At(x)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return len(hist) == 0 || math.Abs(c.At(256)-1.0) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorStatsTop(t *testing.T) {
	s := NewOperatorStats()
	for i := 0; i < 60; i++ {
		s.Add([]string{"big-dns.com"}, 1, 8)
	}
	for i := 0; i < 30; i++ {
		s.Add([]string{"mid-dns.net", "mid-dns.net"}, 0, 0) // same op twice = exclusive
	}
	for i := 0; i < 10; i++ {
		s.Add([]string{"big-dns.com", "mid-dns.net"}, 5, 5) // mixed: dropped
	}
	rows := s.Top(10)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Operator != "big-dns.com" || rows[0].Domains != 60 {
		t.Fatalf("top row %+v", rows[0])
	}
	if math.Abs(rows[0].Share-60.0) > 1e-9 {
		t.Fatalf("share %f (mixed domains count in the denominator)", rows[0].Share)
	}
	if rows[0].Settings[0] != "1/8" || rows[1].Settings[0] != "0/0" {
		t.Fatalf("settings %v / %v", rows[0].Settings, rows[1].Settings)
	}
	var sb strings.Builder
	RenderOperatorTable(&sb, rows)
	if !strings.Contains(sb.String(), "big-dns.com") {
		t.Fatal("render missing operator")
	}
}

func TestOperatorStatsSettingNoiseFiltered(t *testing.T) {
	s := NewOperatorStats()
	for i := 0; i < 2000; i++ {
		s.Add([]string{"op.example"}, 1, 8)
	}
	s.Add([]string{"op.example"}, 77, 3) // single outlier < 0.1 %
	rows := s.Top(1)
	for _, set := range rows[0].Settings {
		if set == "77/3" {
			t.Fatal("noise setting not filtered")
		}
	}
}

func mkSeries() *RCodeSeries {
	mk := func(label string, n uint16, rcode dnswire.RCode, ad bool) testbed.Observation {
		return testbed.Observation{Label: label, Iterations: n, NXProbe: true, RCode: rcode, AD: ad}
	}
	// Two validators: one insecure-above-2, one servfail-above-2.
	t1 := &testbed.Transcript{Observations: []testbed.Observation{
		mk("it-1", 1, dnswire.RCodeNXDomain, true),
		mk("it-2", 2, dnswire.RCodeNXDomain, true),
		mk("it-3", 3, dnswire.RCodeNXDomain, false),
	}}
	t2 := &testbed.Transcript{Observations: []testbed.Observation{
		mk("it-1", 1, dnswire.RCodeNXDomain, true),
		mk("it-2", 2, dnswire.RCodeNXDomain, true),
		mk("it-3", 3, dnswire.RCodeServFail, false),
	}}
	s := NewRCodeSeries("Test, IPv4")
	s.Observe(t1)
	s.Observe(t2)
	return s
}

func TestBuildRCodeSeries(t *testing.T) {
	s := mkSeries()
	if s.Validators != 2 || len(s.Points()) != 3 {
		t.Fatalf("series %+v", s)
	}
	p1, ok := s.At(1)
	if !ok || p1.NXDOMAIN != 100 || p1.ADNXDOMAIN != 100 || p1.SERVFAIL != 0 {
		t.Fatalf("p1 = %+v", p1)
	}
	p3, _ := s.At(3)
	if p3.NXDOMAIN != 50 || p3.ADNXDOMAIN != 0 || p3.SERVFAIL != 50 {
		t.Fatalf("p3 = %+v", p3)
	}
	if _, ok := s.At(99); ok {
		t.Fatal("At(99) hallucinated")
	}
}

// TestRCodeSeriesMergeEquivalence: shard-local series merged in any
// order must equal observing every transcript in one series.
func TestRCodeSeriesMergeEquivalence(t *testing.T) {
	whole := mkSeries()
	mk := func(label string, n uint16, rcode dnswire.RCode, ad bool) testbed.Observation {
		return testbed.Observation{Label: label, Iterations: n, NXProbe: true, RCode: rcode, AD: ad}
	}
	t3 := &testbed.Transcript{Observations: []testbed.Observation{
		mk("it-1", 1, dnswire.RCodeNXDomain, true),
		mk("it-4", 4, dnswire.RCodeServFail, false),
	}}
	whole.Observe(t3)

	// Split: shard A = mkSeries' two transcripts, shard B = t3 alone,
	// merged in both orders.
	for _, reversed := range []bool{false, true} {
		a := mkSeries()
		b := NewRCodeSeries("Test, IPv4")
		b.Observe(t3)
		merged := NewRCodeSeries("Test, IPv4")
		if reversed {
			merged.Merge(b)
			merged.Merge(a)
		} else {
			merged.Merge(a)
			merged.Merge(b)
		}
		if merged.Validators != whole.Validators {
			t.Fatalf("reversed=%v: validators %d != %d", reversed, merged.Validators, whole.Validators)
		}
		if !reflect.DeepEqual(merged.Points(), whole.Points()) {
			t.Fatalf("reversed=%v: merged points %+v != whole %+v", reversed, merged.Points(), whole.Points())
		}
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	s := mkSeries()
	RenderRCodeSeries(&sb, s)
	out := sb.String()
	for _, want := range []string{"Test, IPv4", "NXDOMAIN", "SERVFAIL", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	SparkRender(&sb, s)
	if !strings.Contains(sb.String(), "AD+NXDOMAIN") {
		t.Fatal("spark render incomplete")
	}
	sb.Reset()
	RenderCDF(&sb, "iterations", CDFFromHist(map[int]int{0: 1, 25: 9}), []int{0, 25})
	if !strings.Contains(sb.String(), "10.00 %") {
		t.Fatalf("CDF render:\n%s", sb.String())
	}
}

// TestOperatorStatsMergeEquivalence: per-worker accumulators merged in
// any order must equal a single sequential accumulator.
func TestOperatorStatsMergeEquivalence(t *testing.T) {
	type obs struct {
		ops  []string
		iter uint16
		salt int
	}
	stream := []obs{
		{[]string{"a.net"}, 1, 8},
		{[]string{"a.net"}, 1, 8},
		{[]string{"b.com"}, 0, 0},
		{[]string{"a.net", "b.com"}, 5, 4}, // mixed
		{[]string{"c.org"}, 100, 8},
		{[]string{"b.com"}, 0, 4},
	}
	whole := NewOperatorStats()
	for _, o := range stream {
		whole.Add(o.ops, o.iter, o.salt)
	}
	parts := []*OperatorStats{NewOperatorStats(), NewOperatorStats()}
	for i, o := range stream {
		parts[i%2].Add(o.ops, o.iter, o.salt)
	}
	merged := NewOperatorStats()
	for _, p := range []*OperatorStats{parts[1], parts[0]} { // reversed order
		merged.Merge(p)
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatalf("merged stats differ:\nwhole:  %+v\nmerged: %+v", whole, merged)
	}
	if merged.Total() != len(stream) {
		t.Fatalf("total %d, want %d", merged.Total(), len(stream))
	}
}

// TestCDFHistRoundTripAndMerge: Hist inverts CDFFromHist, and Merge
// equals building one CDF from the combined histogram.
func TestCDFHistRoundTripAndMerge(t *testing.T) {
	ha := map[int]int{0: 5, 1: 3, 10: 2}
	hb := map[int]int{1: 4, 10: 1, 500: 1}
	a := CDFFromHist(ha)
	if !reflect.DeepEqual(a.Hist(), ha) {
		t.Fatalf("Hist round trip: %v", a.Hist())
	}
	a.Merge(CDFFromHist(hb))
	combined := map[int]int{0: 5, 1: 7, 10: 3, 500: 1}
	if !reflect.DeepEqual(a, CDFFromHist(combined)) {
		t.Fatalf("merged CDF differs: %+v vs %+v", a, CDFFromHist(combined))
	}
	// Merging an empty or nil CDF is a no-op.
	a.Merge(CDFFromHist(nil))
	a.Merge(nil)
	if a.Total() != 16 || a.Max() != 500 {
		t.Fatalf("no-op merges changed the CDF: total=%d max=%d", a.Total(), a.Max())
	}
}

// TestOperatorStatsJSONRoundTrip pins the wire codec the distributed
// survey ships shard outcomes through: a decoded accumulator is
// DeepEqual to the original (non-nil maps included) and keeps merging.
func TestOperatorStatsJSONRoundTrip(t *testing.T) {
	s := NewOperatorStats()
	s.Add([]string{"ns.one.example"}, 5, 8)
	s.Add([]string{"ns.one.example"}, 5, 8)
	s.Add([]string{"a.example", "b.example"}, 0, 0) // mixed
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got := NewOperatorStats()
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip drifted: %+v vs %+v", s, got)
	}
	// Empty accumulators must also round-trip to non-nil maps: a worker
	// that saw no NSEC3 domains still produces a mergeable outcome.
	empty := NewOperatorStats()
	data, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	got = &OperatorStats{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if got.domains == nil || got.params == nil {
		t.Fatal("decoded accumulator has nil maps")
	}
	got.Merge(s)
	if got.Total() != s.Total() {
		t.Fatalf("merge after decode: total %d, want %d", got.Total(), s.Total())
	}
	if !reflect.DeepEqual(empty, NewOperatorStats()) {
		t.Fatal("marshal mutated the source accumulator")
	}
}
