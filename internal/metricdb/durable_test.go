package metricdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flare/internal/obs"
	"flare/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	opts := store.DefaultOptions()
	opts.Registry = obs.NewRegistry()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// openDB opens the metric database journaled in st.
func openDB(t *testing.T, st *store.Store) *DB {
	t.Helper()
	db, err := OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// fill inserts a deterministic mix of rows, including zero values.
func fill(t *testing.T, db *DB) {
	t.Helper()
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(0), String(""), Float(0)}, // all zero cells
		{Int(1), String("MIPS"), Float(1000.5)},
		{Int(2), String("IPC"), Float(-0.25)},
		{Int(3), String("LLC-MPKI"), Float(0)},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	other, err := db.CreateTable("job_perf", []Column{
		{Name: "job", Type: TypeString},
		{Name: "mips", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Insert(Row{String("DC"), Float(812.75)}); err != nil {
		t.Fatal(err)
	}
}

// dumpJSON renders a DB to its canonical JSON bytes.
func dumpJSON(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDurableBackendGolden pins the determinism contract of the durable
// backend: a DB journaled through the store serialises byte-identically
// to a purely in-memory DB given the same inserts (backend on vs off),
// and reopening the store after a shutdown reconstructs those exact
// bytes again.
func TestDurableBackendGolden(t *testing.T) {
	mem := NewDB()
	fill(t, mem)
	want := dumpJSON(t, mem)

	dir := t.TempDir()
	st := openStore(t, dir)
	durable := openDB(t, st)
	fill(t, durable)
	if got := dumpJSON(t, durable); !bytes.Equal(got, want) {
		t.Errorf("durable DB differs from in-memory DB:\n got %s\nwant %s", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	back, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpJSON(t, back); !bytes.Equal(got, want) {
		t.Errorf("reopened DB differs from original:\n got %s\nwant %s", got, want)
	}
}

// TestOpenDBEmptyStore yields an empty, writable durable DB.
func TestOpenDBEmptyStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db, err := OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(db.TableNames()); n != 0 {
		t.Fatalf("empty store yielded %d tables", n)
	}
	fill(t, db)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	back, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := back.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 {
		t.Errorf("recovered samples has %d rows, want 4", tbl.Len())
	}
}

// TestDurableDBContinuesAfterReopen checks that inserts after recovery
// continue the journal (sequence numbers resume past the recovered rows)
// rather than overwriting it.
func TestDurableDBContinuesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openDB(t, st)
	fill(t, db)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	db2, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db2.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(4), String("late"), Float(4.5)}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3 := openStore(t, dir)
	defer st3.Close()
	db3, err := OpenDB(st3)
	if err != nil {
		t.Fatal(err)
	}
	tbl3, err := db3.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl3.Select(nil)
	if len(rows) != 5 {
		t.Fatalf("after reopen+insert+reopen: %d rows, want 5", len(rows))
	}
	last := rows[4]
	if last[0].I != 4 || last[1].S != "late" || last[2].F != 4.5 {
		t.Errorf("last row = %+v, want {4 late 4.5}", last)
	}
}

// TestDurableDBSurvivesCrash abandons the store without Close (no final
// flush, the journal lives only in the WAL): every committed row must
// come back on reopen. Torn/corrupt WAL tails are exercised in
// internal/store's crash-recovery tests.
func TestDurableDBSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openDB(t, st)
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(Row{Int(int64(i)), String("MIPS"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: the store is abandoned, not closed. The journal
	// lives in the WAL only.

	st2 := openStore(t, dir)
	defer st2.Close()
	back, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := back.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl2.Select(nil)
	if len(rows) != 20 {
		t.Fatalf("crash recovery lost rows: %d, want 20", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[2].F != float64(i) {
			t.Errorf("row %d = %+v", i, r)
		}
	}
}

// TestOpenDBCorruptSegment flips a byte in a published segment after the
// store has opened (and checked it): OpenDB must fail, not rebuild a
// database from the rows it could still read.
func TestOpenDBCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	fill(t, openDB(t, st))
	if err := st.Close(); err != nil { // flushes the journal to a segment
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment files = %v, %v; want one", segs, err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenDB(st2); err == nil {
		t.Fatalf("OpenDB over a corrupt segment served tables %v", db.TableNames())
	}
}

func TestRowKeyRoundTrip(t *testing.T) {
	k := rowKey("samples", 42)
	table, seq, ok := parseRowKey(k)
	if !ok || table != "samples" || seq != 42 {
		t.Errorf("parseRowKey = %q,%d,%v", table, seq, ok)
	}
	if _, _, ok := parseRowKey([]byte("r\x00short")); ok {
		t.Error("short row key parsed")
	}
	if _, _, ok := parseRowKey([]byte("x\x00samples\x00aaaaaaaa")); ok {
		t.Error("wrong prefix parsed")
	}
}
