//go:build !race

package experiment

// raceEnabled reports a build with the race detector (see race_test.go).
const raceEnabled = false
