//go:build !race

package dnssec

const raceEnabled = false
