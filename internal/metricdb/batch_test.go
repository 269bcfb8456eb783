package metricdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"flare/internal/fault"
	"flare/internal/obs"
	"flare/internal/store"
)

// manyRows is a deterministic batch for the samples schema.
func manyRows(from, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(from + i)), String(fmt.Sprintf("m%d", i%7)), Float(float64(i) / 8)}
	}
	return rows
}

// scanStore renders every journaled key and value of st.
func scanStore(t *testing.T, st *store.Store) string {
	t.Helper()
	var b bytes.Buffer
	if err := st.Scan(func(k, v []byte) bool {
		fmt.Fprintf(&b, "%q=%s\n", k, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestInsertManyMatchesInsert journals the same rows once row by row and
// once in batches: the live databases, the journaled records and the
// reopened databases must all be identical.
func TestInsertManyMatchesInsert(t *testing.T) {
	rows := manyRows(0, 40)
	write := func(batched bool) (live, journal, reopened []byte) {
		dir := t.TempDir()
		st := openStore(t, dir)
		db := openDB(t, st)
		tbl, err := db.CreateTable("samples", sampleSchema())
		if err != nil {
			t.Fatal(err)
		}
		if batched {
			for _, part := range [][]Row{rows[:1], rows[1:25], nil, rows[25:]} {
				if err := tbl.InsertMany(part); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, r := range rows {
				if err := tbl.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		live, journal = dumpJSON(t, db), []byte(scanStore(t, st))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2 := openStore(t, dir)
		defer st2.Close()
		return live, journal, dumpJSON(t, openDB(t, st2))
	}
	oneLive, oneJournal, oneBack := write(false)
	manyLive, manyJournal, manyBack := write(true)
	if !bytes.Equal(oneLive, manyLive) {
		t.Errorf("live dumps differ:\n%s\nvs\n%s", oneLive, manyLive)
	}
	if !bytes.Equal(oneJournal, manyJournal) {
		t.Errorf("journaled records differ:\n%s\nvs\n%s", oneJournal, manyJournal)
	}
	if !bytes.Equal(oneBack, manyBack) || !bytes.Equal(oneBack, oneLive) {
		t.Errorf("reopened dumps differ:\n%s\nvs\n%s", oneBack, manyBack)
	}
}

// TestInsertManyIsOneCommit checks a batch of rows costs one WAL commit.
func TestInsertManyIsOneCommit(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	tbl, err := openDB(t, st).CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	reg := st.Registry()
	before := reg.Counter("flare_store_wal_commit_batches_total", "").Value()
	if err := tbl.InsertMany(manyRows(0, 30)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("flare_store_wal_commit_batches_total", "").Value() - before; got != 1 {
		t.Errorf("commits for one InsertMany = %d, want 1", got)
	}
}

// TestInsertManyRejectsWrongArity puts one short row in a batch: no row
// of it may land.
func TestInsertManyRejectsWrongArity(t *testing.T) {
	tbl, _ := NewTable("samples", sampleSchema())
	rows := append(manyRows(0, 3), Row{Int(9)})
	if err := tbl.InsertMany(rows); err == nil {
		t.Fatal("short row accepted")
	}
	if tbl.Len() != 0 {
		t.Errorf("table has %d rows after a rejected batch, want 0", tbl.Len())
	}
}

// TestInsertManyRejectsForeignField puts one cell that sets a field its
// column's type does not hold into a batch, for each column type: the
// batch is rejected whole, so no cell is silently dropped.
func TestInsertManyRejectsForeignField(t *testing.T) {
	for _, bad := range []Row{
		{Value{I: 1, F: 2}, String("m"), Float(1)},
		{Int(1), Value{S: "m", I: 3}, Float(1)},
		{Int(1), String("m"), Value{S: "x"}},
		{Int(1), String("m"), Value{F: 1, I: 1}},
	} {
		tbl, _ := NewTable("samples", sampleSchema())
		if err := tbl.InsertMany(append(manyRows(0, 2), bad)); err == nil {
			t.Errorf("row %+v accepted", bad)
		}
		if tbl.Len() != 0 {
			t.Errorf("row %+v: table has %d rows after a rejected batch, want 0", bad, tbl.Len())
		}
	}
	tbl, _ := NewTable("samples", sampleSchema())
	if err := tbl.Insert(Row{Value{F: math.Copysign(0, -1)}, String(""), Float(0)}); err != nil {
		t.Errorf("zero cells rejected: %v", err)
	}
}

// TestInsertManyOutageLeavesTableUnchanged fails every journal attempt:
// the batch errors, and neither the live table nor the reopened one
// holds any of its rows.
func TestInsertManyOutageLeavesTableUnchanged(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openFastDB(t, st)
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertMany(manyRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	want := dumpJSON(t, db)
	in, err := fault.New(fault.MustParseSpec("store.wal.append=error@1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)
	if err := tbl.InsertMany(manyRows(2, 10)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("InsertMany during outage = %v, want wrapped ErrInjected", err)
	}
	if got := dumpJSON(t, db); !bytes.Equal(got, want) {
		t.Errorf("table changed by a failed batch:\n%s", got)
	}
	st.SetInjector(nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := dumpJSON(t, openDB(t, st2)); !bytes.Equal(got, want) {
		t.Errorf("reopened table holds rows of a failed batch:\n%s", got)
	}
}

// TestInsertManyAbsorbsTransientFault fails the first journal attempt
// of a batch: the retry lands it once, with no duplicate rows, live or
// after reopen.
func TestInsertManyAbsorbsTransientFault(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openFastDB(t, st)
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.New(fault.MustParseSpec("store.wal.append=error#1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)
	if err := tbl.InsertMany(manyRows(0, 12)); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", in.Injected())
	}
	ref := NewDB()
	rt, _ := ref.CreateTable("samples", sampleSchema())
	if err := rt.InsertMany(manyRows(0, 12)); err != nil {
		t.Fatal(err)
	}
	want := dumpJSON(t, ref)
	if got := dumpJSON(t, db); !bytes.Equal(got, want) {
		t.Errorf("live table after absorbed fault:\n%s\nwant\n%s", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := dumpJSON(t, openDB(t, st2)); !bytes.Equal(got, want) {
		t.Errorf("reopened table after absorbed fault:\n%s\nwant\n%s", got, want)
	}
}

// TestGetOrCreateTableConcurrent has 16 goroutines get-or-create one
// table on a fresh store-backed database and insert a row each: all
// succeed, the schema is journaled once, and a reopen has every row.
func TestGetOrCreateTableConcurrent(t *testing.T) {
	const writers = 16
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openDB(t, st)
	tables := make([]*Table, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g], errs[g] = db.GetOrCreateTable("estimates", sampleSchema())
			if errs[g] == nil {
				errs[g] = tables[g].Insert(Row{Int(int64(g)), String("MIPS"), Float(1)})
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
		if tables[g] != tables[0] {
			t.Fatalf("writer %d got a different table", g)
		}
	}
	if got := st.Registry().Counter("flare_store_wal_appends_total", "").Value(); got != writers+1 {
		t.Errorf("journaled records = %d, want %d rows + 1 schema", got, writers)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	back, err := openDB(t, st2).Table("estimates")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != writers {
		t.Errorf("reopened table has %d rows, want %d", back.Len(), writers)
	}
}

// TestGetOrCreateTableSchemaMismatch returns the existing table for the
// same schema and refuses a different one.
func TestGetOrCreateTableSchemaMismatch(t *testing.T) {
	db := NewDB()
	a, err := db.GetOrCreateTable("t", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if b, err := db.GetOrCreateTable("t", sampleSchema()); err != nil || b != a {
		t.Errorf("same schema: got %p, %v; want the existing table %p", b, err, a)
	}
	if _, err := db.GetOrCreateTable("t", intColSchema()); err == nil {
		t.Error("different schema accepted")
	}
}
