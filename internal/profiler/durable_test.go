package profiler

import (
	"context"
	"testing"

	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/scenario"
	"flare/internal/store"
	"flare/internal/workload"
)

// TestStoreDurableRoundTrip persists a dataset through the store-backed
// database, reopens the directory cold, and checks the matrix loads back
// cell-for-cell identical — the pipeline-level durability guarantee.
func TestStoreDurableRoundTrip(t *testing.T) {
	set := scenario.NewSet()
	a, _ := scenario.New([]scenario.Placement{{Job: workload.DataCaching, Instances: 2}})
	b, _ := scenario.New([]scenario.Placement{{Job: workload.Mcf, Instances: 1}})
	set.Add(a)
	set.Add(b)
	ds := collect(t, set, DefaultOptions())

	dir := t.TempDir()
	st, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	stored := func(db *metricdb.DB) bool {
		t.Helper()
		ok, err := ds.Stored(db)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if stored(db) {
		t.Fatal("fresh database reports Stored")
	}
	if err := ds.Store(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if !stored(db) {
		t.Error("populated database does not report Stored")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen: the journaled rows must rebuild the same matrix.
	st2, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2, err := metricdb.OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !stored(db2) {
		t.Fatal("reopened database does not report Stored")
	}

	shell := &Dataset{
		Scenarios: set,
		Catalog:   ds.Catalog,
		Config:    ds.Config,
		Matrix:    ds.Matrix.Clone(),
	}
	for i := 0; i < shell.Matrix.Rows(); i++ {
		for j := 0; j < shell.Matrix.Cols(); j++ {
			shell.Matrix.Set(i, j, 0)
		}
	}
	if err := shell.LoadMatrix(db2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Matrix.Rows(); i++ {
		for j := 0; j < ds.Matrix.Cols(); j++ {
			if shell.Matrix.At(i, j) != ds.Matrix.At(i, j) {
				t.Fatalf("cell (%d,%d) lost across durable round trip", i, j)
			}
		}
	}
}

// TestStoredRejectsPartialDataset journals the first half of a dataset's
// scenarios, as a persist killed midway leaves it, reopens the directory
// and requires Stored to refuse it rather than report the dataset held.
func TestStoredRejectsPartialDataset(t *testing.T) {
	set := scenario.NewSet()
	for n := 1; n <= 4; n++ {
		sc, err := scenario.New([]scenario.Placement{{Job: workload.DataCaching, Instances: n}})
		if err != nil {
			t.Fatal(err)
		}
		set.Add(sc)
	}
	ds := collect(t, set, DefaultOptions())
	halfSet := scenario.NewSet()
	for id := 0; id < set.Len()/2; id++ {
		sc, err := set.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		halfSet.Add(sc)
	}
	half := *ds
	half.Scenarios = halfSet

	dir := t.TempDir()
	st, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := half.Store(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2, err := metricdb.OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ds.Stored(db2); err == nil || ok {
		t.Fatalf("Stored over half a dataset = %v, %v; want an error", ok, err)
	}
	if ok, err := half.Stored(db2); err != nil || !ok {
		t.Fatalf("Stored of the recorded half = %v, %v; want true", ok, err)
	}
}

// TestStoreDeterministicRowOrder stores the same dataset into two fresh
// databases and checks the job_perf row sequences match exactly — map
// iteration must not leak into the journaled order.
func TestStoreDeterministicRowOrder(t *testing.T) {
	set := scenario.NewSet()
	sc, _ := scenario.New([]scenario.Placement{
		{Job: workload.DataCaching, Instances: 1},
		{Job: workload.WebSearch, Instances: 1},
		{Job: workload.Mcf, Instances: 2},
	})
	set.Add(sc)
	ds := collect(t, set, DefaultOptions())

	rowSeq := func() []string {
		db := metricdb.NewDB()
		if err := ds.Store(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		tb, err := db.Table("job_perf")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range tb.Select(nil) {
			out = append(out, row[1].S)
		}
		return out
	}
	first := rowSeq()
	for trial := 0; trial < 10; trial++ {
		got := rowSeq()
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d rows vs %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: row %d job %q, want %q", trial, i, got[i], first[i])
			}
		}
	}
}

// TestStoreCommitsPerScenario pins the journal's write shape: the two
// schemas, then one WAL commit for each scenario's samples rows and one
// for its job_perf rows — not one per row.
func TestStoreCommitsPerScenario(t *testing.T) {
	set := scenario.NewSet()
	for _, pl := range [][]scenario.Placement{
		{{Job: workload.DataCaching, Instances: 2}},
		{{Job: workload.Mcf, Instances: 1}, {Job: workload.WebSearch, Instances: 3}},
		{{Job: workload.DataCaching, Instances: 1}, {Job: workload.Mcf, Instances: 2}},
	} {
		sc, err := scenario.New(pl)
		if err != nil {
			t.Fatal(err)
		}
		set.Add(sc)
	}
	ds := collect(t, set, DefaultOptions())

	reg := obs.NewRegistry()
	opts := store.DefaultOptions()
	opts.Registry = reg
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Store(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("flare_store_wal_commit_batches_total", "").Value(), uint64(2+2*set.Len()); got != want {
		t.Errorf("WAL commits = %d, want %d (2 schemas + 2 per scenario)", got, want)
	}
	rows := 0
	for _, name := range []string{samplesTable, jobPerfTable} {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		rows += tbl.Len()
	}
	if got := reg.Counter("flare_store_wal_appends_total", "").Value(); got != uint64(rows+2) {
		t.Errorf("WAL records = %d, want %d rows + 2 schemas", got, rows)
	}
}
