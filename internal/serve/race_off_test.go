//go:build !race

package serve_test

// raceEnabled reports a build under the race detector.
const raceEnabled = false
