package profiler

import (
	"context"
	"testing"

	"flare/internal/metricdb"
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
	if Stored(db) {
		t.Fatal("fresh database reports Stored")
	}
	if err := ds.Store(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if !Stored(db) {
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
	if !Stored(db2) {
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
