//go:build race

package cf

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
