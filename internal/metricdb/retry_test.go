package metricdb

import (
	"errors"
	"testing"
	"time"

	"flare/internal/fault"
	"flare/internal/obs"
	"flare/internal/retry"
)

// fastRetry is the default journal policy without real sleeps.
func fastRetry() retry.Policy {
	p := defaultJournalRetry(obs.NewRegistry())
	p.Sleep = func(time.Duration) {}
	return p
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

	b := NewStoreBackend(st)
	b.Retry = fastRetry()
	db := NewDBWithBackend(b)
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
// injected sentinel.
func TestJournalSurfacesPersistentOutage(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	in, err := fault.New(fault.MustParseSpec("store.wal.append=error@1"), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st.SetInjector(in)

	b := NewStoreBackend(st)
	b.Retry = fastRetry()
	if err := b.Insert("samples", Row{Int(1)}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Insert during outage = %v, want wrapped ErrInjected", err)
	}
	if in.Injected() < int(b.Retry.MaxAttempts) {
		t.Errorf("injected = %d, want >= %d (every attempt hit the fault)",
			in.Injected(), b.Retry.MaxAttempts)
	}
}
