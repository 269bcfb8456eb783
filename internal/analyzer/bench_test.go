package analyzer

import (
	"context"
	"math/rand"
	"testing"
)

// appendHold is how many scenarios the append benchmark holds back from
// its population to append one per tick; once they run out it builds a
// fresh fixture, untimed.
const appendHold = 128

// BenchmarkIncrementalTick times the incremental analyzer's share of one
// profiler tick on flarebench's 28-day population (default seeds, 18
// representatives). remeasure folds 1-3 re-measured scenarios, the
// tick-mix tick: a re-measure reproduces its row bit for bit, so the
// benchmark folds the unchanged rows without re-profiling them. append
// folds one newly profiled scenario (its profiling untimed). Each reports
// the Jacobi sweeps its PCA eigensolve ran per tick.
func BenchmarkIncrementalTick(b *testing.B) {
	ctx := context.Background()
	b.Run("remeasure", func(b *testing.B) {
		fx := newStreamFixture(b, 28, 0)
		rng := rand.New(rand.NewSource(1))
		population := fx.set.Len()
		sweeps := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fx.inc.TickContext(ctx, remeasureIDs(rng, population)); err != nil {
				b.Fatal(err)
			}
			sweeps += fx.inc.Analysis().PCA.Sweeps
		}
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	})
	b.Run("append", func(b *testing.B) {
		fx := newStreamFixture(b, 28, appendHold)
		sweeps := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if len(fx.rest) == 0 {
				fx = newStreamFixture(b, 28, appendHold)
			}
			fx.set.Add(fx.rest[0])
			fx.rest = fx.rest[1:]
			touched, err := fx.collector.Tick(ctx, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := fx.inc.TickContext(ctx, touched); err != nil {
				b.Fatal(err)
			}
			sweeps += fx.inc.Analysis().PCA.Sweeps
		}
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	})
}
