package metricdb

import (
	"runtime"
	"testing"

	"flare/internal/store"
)

// TestMemtableCountsEntryHeap journals estimate rows, as the server
// journals each estimate it computes, into a store-backed database and
// checks that the memtable size the store's flush threshold reads counts
// the heap its entries hold, within ±25 %: the heap a Flush frees, read
// after a forced GC on both sides, against the counted bytes it drops.
func TestMemtableCountsEntryHeap(t *testing.T) {
	opts := store.DefaultOptions()
	opts.SyncWrites = false
	opts.FlushBytes = 1 << 30 // flush only when the test says so
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tbl, err := openDB(t, st).CreateTable("estimates", []Column{
		{Name: "feature", Type: TypeString},
		{Name: "job", Type: TypeString},
		{Name: "reduction_pct", Type: TypeFloat},
		{Name: "scenarios", Type: TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Row{String("feature2"), String("WSC"), Float(1.25 + float64(i)/7919), Int(18)}); err != nil {
			t.Fatal(err)
		}
	}
	counted := st.Stats().MemtableBytes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	freed := float64(before.HeapAlloc) - float64(after.HeapAlloc)
	ratio := freed / float64(counted)
	t.Logf("%d entries: memtable counts %.1f B/entry, a flush frees %.1f B/entry of heap",
		n, float64(counted)/n, freed/n)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("a flush frees %.0f B of heap for %d counted memtable bytes (ratio %.2f), want within ±25 %%",
			freed, counted, ratio)
	}
}
