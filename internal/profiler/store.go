package profiler

import (
	"context"
	"fmt"
	"sort"

	"flare/internal/metricdb"
	"flare/internal/obs"
)

// Table names used in the metric database.
const (
	samplesTable = "samples"  // (scenario, metric, value)
	jobPerfTable = "job_perf" // (scenario, job, mips)
)

// Store writes the dataset into the metric database, creating the
// "samples" and "job_perf" tables (the paper's relational recording of
// collected statistics). Rows are inserted per scenario: its samples
// rows, then its job_perf rows, each set with one InsertMany. When the
// database is store-backed (see metricdb.OpenDB) each set is one
// fsynced WAL commit, so a crash mid-store keeps every committed batch —
// the history does not depend on an end-of-run dump. A "profiler.store"
// span records how many rows were recorded.
func (ds *Dataset) Store(ctx context.Context, db *metricdb.DB) error {
	return obs.InSpan(ctx, "profiler.store", func(_ context.Context, span *obs.Span) error {
		samples, err := db.CreateTable(samplesTable, []metricdb.Column{
			{Name: "scenario", Type: metricdb.TypeInt},
			{Name: "metric", Type: metricdb.TypeString},
			{Name: "value", Type: metricdb.TypeFloat},
		})
		if err != nil {
			return fmt.Errorf("profiler: %w", err)
		}
		jobPerf, err := db.CreateTable(jobPerfTable, []metricdb.Column{
			{Name: "scenario", Type: metricdb.TypeInt},
			{Name: "job", Type: metricdb.TypeString},
			{Name: "mips", Type: metricdb.TypeFloat},
		})
		if err != nil {
			return fmt.Errorf("profiler: %w", err)
		}

		// One reused slice holds a scenario's rows; InsertMany copies them.
		rows := 0
		names := ds.Catalog.Names()
		batch := make([]metricdb.Row, 0, len(names))
		insert := func(t *metricdb.Table) error {
			if err := t.InsertMany(batch); err != nil {
				return fmt.Errorf("profiler: %w", err)
			}
			rows += len(batch)
			batch = batch[:0]
			return nil
		}
		for id := 0; id < ds.Scenarios.Len(); id++ {
			for col, name := range names {
				batch = append(batch, metricdb.Row{
					metricdb.Int(int64(id)),
					metricdb.String(name),
					metricdb.Float(ds.Matrix.At(id, col)),
				})
			}
			if err := insert(samples); err != nil {
				return err
			}
			// Sorted jobs, not map order: the stored row sequence (and so the
			// journaled byte stream) must be identical run to run.
			jobs := make([]string, 0, len(ds.JobMIPS[id]))
			for job := range ds.JobMIPS[id] {
				jobs = append(jobs, job)
			}
			sort.Strings(jobs)
			for _, job := range jobs {
				batch = append(batch, metricdb.Row{
					metricdb.Int(int64(id)),
					metricdb.String(job),
					metricdb.Float(ds.JobMIPS[id][job]),
				})
			}
			if err := insert(jobPerf); err != nil {
				return err
			}
		}
		span.SetAttr("rows", rows)
		return nil
	})
}

// Stored reports whether db already holds ds — e.g. a server restarted
// against a durable database directory should load rather than re-store.
// A db without a "samples" table holds no dataset. A db whose samples or
// job_perf row counts differ from ds's is an error: Store commits each
// scenario's rows separately, so a persist that failed or was killed
// midway leaves a partial dataset that must not be served as the
// recorded history.
func (ds *Dataset) Stored(db *metricdb.DB) (bool, error) {
	samples, err := db.Table(samplesTable)
	if err != nil {
		return false, nil
	}
	var jobRows int
	if jobPerf, err := db.Table(jobPerfTable); err == nil {
		jobRows = jobPerf.Len()
	}
	wantJobRows := 0
	for _, mips := range ds.JobMIPS[:ds.Scenarios.Len()] {
		wantJobRows += len(mips)
	}
	if want := ds.Scenarios.Len() * ds.Catalog.Len(); samples.Len() != want || jobRows != wantJobRows {
		return false, fmt.Errorf("profiler: stored dataset is partial or from another build: "+
			"%d samples and %d job_perf rows, want %d and %d", samples.Len(), jobRows, want, wantJobRows)
	}
	return true, nil
}

// LoadMatrix reads the "samples" table back into the dataset's matrix
// layout, validating that every (scenario, metric) cell is present.
func (ds *Dataset) LoadMatrix(db *metricdb.DB) error {
	samples, err := db.Table(samplesTable)
	if err != nil {
		return fmt.Errorf("profiler: %w", err)
	}
	seen := 0
	for _, row := range samples.Select(nil) {
		id := int(row[0].I)
		col := ds.Catalog.Index(row[1].S)
		if col < 0 {
			return fmt.Errorf("profiler: samples table has unknown metric %q", row[1].S)
		}
		if id < 0 || id >= ds.Scenarios.Len() {
			return fmt.Errorf("profiler: samples table has out-of-range scenario %d", id)
		}
		ds.Matrix.Set(id, col, row[2].F)
		seen++
	}
	want := ds.Scenarios.Len() * ds.Catalog.Len()
	if seen != want {
		return fmt.Errorf("profiler: samples table has %d cells, want %d", seen, want)
	}
	return nil
}
