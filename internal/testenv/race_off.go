//go:build !race

package testenv

// RaceEnabled reports that the race detector is active; see race_on.go.
const RaceEnabled = false
