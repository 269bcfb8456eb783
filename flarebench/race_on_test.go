//go:build race

package main

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because instrumentation inflates
// the counts.
const raceEnabled = true
