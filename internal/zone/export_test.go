package zone

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
