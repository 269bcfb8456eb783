// Package kmeans is a detrand fixture: its base name is on the
// determinism-critical list, so clock reads and the global math/rand
// generator must be flagged while explicitly seeded draws stay legal.
package kmeans

import (
	"math/rand"
	"time"
)

func BadNow() time.Time {
	return time.Now() // want `time.Now in determinism-critical package kmeans`
}

func BadSince(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since in determinism-critical package kmeans`
}

func BadGlobal() int {
	return rand.Intn(10) // want `global math/rand.Intn in determinism-critical package kmeans`
}

func GoodSeeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

func GoodMethodDraw(r *rand.Rand) int {
	return r.Intn(10)
}

func BadClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `time.Now in determinism-critical package kmeans` `math/rand\.New seeded from the clock` `math/rand\.NewSource seeded from the clock`
}

func GoodExempted() time.Time {
	//lint:exempt detrand wall-clock feeds a log banner only, never golden output
	return time.Now()
}

func BadReasonlessDirective() time.Time {
	//lint:exempt detrand
	return time.Now() // want `time.Now in determinism-critical package kmeans`
}

// Only the generic form exempts; an analyzer-specific spelling does not.
func BadLegacyDirective() time.Time {
	//lint:deterministic-exempt wall-clock feeds a log banner only
	return time.Now() // want `time.Now in determinism-critical package kmeans`
}

// seedHelper's clock read is exempt at its own site (it feeds a banner),
// but a seed derived from it is still clock-derived: the summary layer
// must carry the taint through the call.
func seedHelper() int64 {
	//lint:exempt detrand wall-clock feeds a log banner only, never golden output
	return time.Now().UnixNano()
}

func BadHelperSeed() *rand.Rand {
	return rand.New(rand.NewSource(seedHelper())) // want `math/rand\.New seeded from the clock` `math/rand\.NewSource seeded from the clock`
}
