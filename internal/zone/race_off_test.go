//go:build !race

package zone

// raceEnabled is false in a normal build; see race_on_test.go.
const raceEnabled = false
