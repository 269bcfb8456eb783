package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/store"
)

// dbServer builds a fresh Server sharing the fixture pipeline, with the
// profiled dataset persisted into a store-backed database under dir.
// The store is closed via t.Cleanup so the test can reopen dir.
func dbServer(t *testing.T, dir string) *Server {
	t.Helper()
	base := testServer(t)
	st, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.pipeline.PersistDataset(db); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithTelemetry(base.pipeline, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachDB(db)
	return srv
}

func TestDBEndpointsWithoutDB(t *testing.T) {
	h := testServer(t).Handler()
	get(t, h, "/api/db/tables", http.StatusNotFound, nil)
	get(t, h, "/api/db/query?table=samples", http.StatusNotFound, nil)
}

func TestDBTables(t *testing.T) {
	h := dbServer(t, t.TempDir()).Handler()
	var tables []tableInfo
	get(t, h, "/api/db/tables", http.StatusOK, &tables)
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	byName := map[string]tableInfo{}
	for _, ti := range tables {
		byName[ti.Name] = ti
	}
	samples, ok := byName["samples"]
	if !ok {
		t.Fatal("samples table missing")
	}
	if samples.Rows == 0 {
		t.Error("samples table is empty")
	}
	wantCols := []columnInfo{
		{Name: "scenario", Type: "int"},
		{Name: "metric", Type: "string"},
		{Name: "value", Type: "float"},
	}
	if len(samples.Columns) != len(wantCols) {
		t.Fatalf("samples columns = %v", samples.Columns)
	}
	for i, c := range wantCols {
		if samples.Columns[i] != c {
			t.Errorf("samples column %d = %+v, want %+v", i, samples.Columns[i], c)
		}
	}
	if _, ok := byName["job_perf"]; !ok {
		t.Error("job_perf table missing")
	}
}

func TestDBQueryPagingAndFilter(t *testing.T) {
	h := dbServer(t, t.TempDir()).Handler()

	var page queryResponse
	get(t, h, "/api/db/query?table=samples&limit=5", http.StatusOK, &page)
	if len(page.Rows) != 5 {
		t.Fatalf("limit=5 returned %d rows", len(page.Rows))
	}
	if page.Total <= 5 {
		t.Errorf("total_rows = %d, want > 5", page.Total)
	}

	// The second page must pick up exactly where the first left off.
	var next queryResponse
	get(t, h, "/api/db/query?table=samples&limit=5&offset=5", http.StatusOK, &next)
	if next.Total != page.Total {
		t.Errorf("offset changed total_rows: %d vs %d", next.Total, page.Total)
	}
	if len(next.Rows) != 5 {
		t.Fatalf("second page returned %d rows", len(next.Rows))
	}
	if string(mustJSON(t, page.Rows[0])) == string(mustJSON(t, next.Rows[0])) {
		t.Error("offset=5 returned the same first row as offset=0")
	}

	// Typed equality filter: scenario 0's samples only.
	var filtered queryResponse
	get(t, h, "/api/db/query?table=samples&col=scenario&eq=0&limit=10000", http.StatusOK, &filtered)
	if filtered.Total == 0 || filtered.Total >= page.Total {
		t.Errorf("filter total = %d (unfiltered %d)", filtered.Total, page.Total)
	}
	for _, row := range filtered.Rows {
		if row[0] != float64(0) { // JSON numbers decode as float64
			t.Fatalf("filtered row has scenario %v", row[0])
		}
	}

	get(t, h, "/api/db/query", http.StatusBadRequest, nil)
	get(t, h, "/api/db/query?table=nope", http.StatusNotFound, nil)
	get(t, h, "/api/db/query?table=samples&col=scenario", http.StatusBadRequest, nil)
	get(t, h, "/api/db/query?table=samples&col=scenario&eq=notanint", http.StatusBadRequest, nil)
	get(t, h, "/api/db/query?table=samples&offset=-1", http.StatusBadRequest, nil)
	get(t, h, "/api/db/query?table=samples&limit=x", http.StatusBadRequest, nil)
}

// TestDBQuerySurvivesRestart is the acceptance check for durability: a
// server opened against an existing database directory serves exactly
// the same /api/db/query bytes as the server that wrote it.
func TestDBQuerySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const q = "/api/db/query?table=job_perf&limit=10000"
	base := testServer(t)

	// First "run": persist the dataset durably and record a query.
	st1, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db1, err := metricdb.OpenDB(st1)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.pipeline.PersistDataset(db1); err != nil {
		t.Fatal(err)
	}
	srv1, err := NewWithTelemetry(base.pipeline, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv1.AttachDB(db1)
	before := rawGet(t, srv1.Handler(), q)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the directory and attach it to a fresh server,
	// without re-persisting (the dataset is already recorded).
	st, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := metricdb.OpenDB(st)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithTelemetry(base.pipeline, machine.PaperFeatures(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachDB(db)

	after := rawGet(t, srv.Handler(), q)
	if before != after {
		t.Errorf("query results changed across restart:\nbefore: %.200s\nafter:  %.200s", before, after)
	}
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func rawGet(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d (body: %s)", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}
