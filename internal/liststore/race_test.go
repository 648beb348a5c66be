//go:build race

package liststore

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
