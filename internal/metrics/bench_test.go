package metrics

import "testing"

// benchVector builds a catalog-sized vector with or without the shared
// name index, so the two benchmarks below isolate the cost of Get itself.
func benchVector(b *testing.B, indexed bool) (Vector, string) {
	b.Helper()
	c := DefaultCatalog()
	v := Vector{Names: c.Names(), Values: make([]float64, c.Len())}
	for i := range v.Values {
		v.Values[i] = float64(i)
	}
	if indexed {
		v.index = c.byName
	}
	// Worst case for the linear scan: the last metric in the catalog.
	return v, v.Names[len(v.Names)-1]
}

// BenchmarkVectorGetIndexed measures the map-backed lookup ExtractInto
// hands out (one shared name->index map per catalog).
func BenchmarkVectorGetIndexed(b *testing.B) {
	v, name := benchVector(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Get(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorGetLinear measures the fallback scan that literal-built
// vectors (no catalog) still use — and that every extracted vector
// used before the index was added.
func BenchmarkVectorGetLinear(b *testing.B) {
	v, name := benchVector(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Get(name); err != nil {
			b.Fatal(err)
		}
	}
}
