//go:build race

package main

// raceSlowdown stretches the quick-mode windows of the tests: under the
// race detector a replace no longer fits the window the plain build needs.
const raceSlowdown = 6
