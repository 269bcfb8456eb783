package metricdb

import (
	"errors"
	"testing"
	"time"

	"flare/internal/fault"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

// fastJournalRetry is the default journal retry policy minus its real
// sleeps.
func fastJournalRetry(st *store.Store) retry.Policy {
	p := defaultJournalRetry(st.Registry())
	p.Sleep = func(time.Duration) {}
	return p
}

// openFastDB opens st's database and rebinds its journal to
// fastJournalRetry.
func openFastDB(t *testing.T, st *store.Store) *DB {
	t.Helper()
	db := openDB(t, st)
	db.journal.retry = fastJournalRetry(st).Bind()
	return db
}

// TestJournalRetriesTransientAppend injects a single failing WAL append
// and verifies the journal path absorbs it: the Insert succeeds and the
// row is durable.
func TestJournalRetriesTransientAppend(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	in, err := fault.New(fault.MustParseSpec("store.wal.append=error#1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)

	db := openFastDB(t, st)
	fill(t, db)
	want := dumpJSON(t, db)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 1 {
		t.Fatalf("injected = %d, want exactly 1 absorbed fault", in.Injected())
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	db2, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpJSON(t, db2); string(got) != string(want) {
		t.Errorf("recovered DB differs from original after absorbed fault:\n%s\nvs\n%s", got, want)
	}
}

// TestJournalSurfacesPersistentOutage verifies a total store outage is
// reported to the caller once retries are exhausted, wrapping the
// injected sentinel, and that a failed journal write leaves the table
// and the database unchanged.
func TestJournalSurfacesPersistentOutage(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	db := openFastDB(t, st)
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(1), String("MIPS"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	in, err := fault.New(fault.MustParseSpec("store.wal.append=error@1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)

	if err := tbl.Insert(Row{Int(2), String("IPC"), Float(2)}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Insert during outage = %v, want wrapped ErrInjected", err)
	}
	if attempts := fastJournalRetry(st).MaxAttempts; in.Injected() != attempts {
		t.Errorf("injected = %d, want %d (every attempt hit the fault)", in.Injected(), attempts)
	}
	if _, err := tbl.TruncateHead(0); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("TruncateHead during outage = %v, want wrapped ErrInjected", err)
	}
	if rows := tbl.Select(nil); len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("rows after failed journal writes = %+v, want only the first", rows)
	}
	if _, err := db.CreateTable("job_perf", sampleSchema()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("CreateTable during outage = %v, want wrapped ErrInjected", err)
	}
	if names := db.TableNames(); len(names) != 1 {
		t.Errorf("tables after a failed CreateTable = %v, want [samples]", names)
	}
}
