package metricdb

import (
	"runtime"
	"testing"
)

// benchRows is how many rows each BenchmarkTableRowHeap iteration
// inserts into a fresh table before it reads the retained heap.
const benchRows = 20000

// BenchmarkTableRowHeap reports the heap a table retains per row
// (B/row, after a GC) for the profiled dataset's schema, inserted one
// scenario batch of 23 rows at a time as Dataset.Store does, and for the
// server's estimates audit schema, inserted a row at a time as
// persistEstimate does. Strings are shared, as the catalog's metric and
// job names and the feature names are in the real callers.
func BenchmarkTableRowHeap(b *testing.B) {
	names := []string{"MIPS", "IPC", "LLC-MPKI", "L2-MPKI", "MemBW"}
	schemas := []struct {
		name    string
		columns []Column
		batch   int
		row     func(i int) Row
	}{
		{"dataset", sampleSchema(), 23, func(i int) Row {
			return Row{Int(int64(i / 23)), String(names[i%len(names)]), Float(float64(i) / 3)}
		}},
		{"estimates", []Column{
			{Name: "feature", Type: TypeString},
			{Name: "job", Type: TypeString},
			{Name: "reduction_pct", Type: TypeFloat},
			{Name: "scenarios", Type: TypeInt},
		}, 1, func(i int) Row {
			return Row{String("feature1"), String(""), Float(float64(i) / 7), Int(18)}
		}},
	}
	for _, sc := range schemas {
		b.Run(sc.name, func(b *testing.B) {
			var retained float64
			batch := make([]Row, sc.batch)
			for n := 0; n < b.N; n++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				tbl, err := NewTable("t", sc.columns)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < benchRows; i += sc.batch {
					for k := range batch {
						batch[k] = sc.row(i + k)
					}
					if err := tbl.InsertMany(batch); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(tbl)
				retained += float64(after.HeapAlloc) - float64(before.HeapAlloc)
			}
			b.ReportMetric(retained/float64(b.N*benchRows), "B/row")
		})
	}
}
