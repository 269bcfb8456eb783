//go:build race

package analyzer

// raceEnabled reports whether the race detector is active; the long
// single-goroutine tick sequences run a tenth of their ticks under -race,
// whose instrumentation slows them about tenfold and finds nothing there.
const raceEnabled = true
