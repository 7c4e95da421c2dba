//go:build race

package core

// raceEnabled trims the long session tests under the race detector,
// which runs them about fifteen times slower.
const raceEnabled = true
