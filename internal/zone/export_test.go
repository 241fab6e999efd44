package zone

import (
	"testing"

	"repro/internal/dnswire"
)

// The reference-prover tests live in package zone_test so they can
// import statewalk (which imports zone); these are the in-package test
// fixtures they share with the tests here.
var (
	TestZone   = testZone
	RandomZone = randomZone
)

// Test signing window shared with the external tests.
const (
	TestInception  = tInception
	TestExpiration = tExpiration
)

// MustRRSIGs is RRSIGsFor where signing cannot fail: the test does.
func (s *Signed) MustRRSIGs(t testing.TB, name dnswire.Name, covered dnswire.Type) []dnswire.RR {
	t.Helper()
	sigs, err := s.RRSIGsFor(name, covered)
	if err != nil {
		t.Fatal(err)
	}
	return sigs
}

// MustAllRecords is AllRecords where signing cannot fail.
func (s *Signed) MustAllRecords(t testing.TB) []dnswire.RR {
	t.Helper()
	rrs, err := s.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	return rrs
}
