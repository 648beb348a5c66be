//go:build race

package dataset

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
