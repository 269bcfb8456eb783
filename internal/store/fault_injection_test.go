package store

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"flare/internal/fault"
	"flare/internal/obs"
)

// injector builds a test injector from a spec string.
func injector(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	in, err := fault.New(fault.MustParseSpec(spec), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// segFiles lists seg-*.seg files currently in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range matches {
		matches[i] = filepath.Base(matches[i])
	}
	return matches
}

// TestInjectedAppendOutage arms a total WAL-append outage and verifies
// appends fail with the injected sentinel, then recover the moment the
// injector is cleared — the shape of the outage the server's degraded
// mode is built around.
func TestInjectedAppendOutage(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	mustAppend(t, s, "before", "1")

	s.SetInjector(injector(t, "store.wal.append=error@1"))
	if err := s.Append([]byte("during"), []byte("2")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append during outage = %v, want ErrInjected", err)
	}

	s.SetInjector(nil)
	mustAppend(t, s, "after", "3")
	if _, ok := get(t, s, "during"); ok {
		t.Error("failed append is visible")
	}
	if v, ok := get(t, s, "after"); !ok || v != "3" {
		t.Errorf("get(after) = %q,%v, want 3,true", v, ok)
	}
}

// TestCrashPointFlushPublish drives the store's hardest recovery window
// through internal/fault instead of hand-written torn files: the flush
// crashes after the segment file is durably written but before the
// manifest publishes it. The abandoned store leaves an orphan segment;
// reopening must serve every record from the WAL and collect the orphan.
func TestCrashPointFlushPublish(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Injector = injector(t, "store.flush.publish=crash#1")
	s := openTest(t, dir, opts)
	mustAppend(t, s, "a", "1")
	mustAppend(t, s, "b", "2")

	if err := s.Flush(); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("Flush = %v, want ErrCrash", err)
	}
	// The crash point is between segment write and manifest publish, so
	// exactly one unpublished segment file must be on disk.
	if orphans := segFiles(t, dir); len(orphans) != 1 {
		t.Fatalf("after crash: segment files = %v, want exactly one orphan", orphans)
	}
	// Abandon s (the simulated crashed process) and recover.
	s2 := openTest(t, dir, testOptions())
	defer s2.Close()
	if orphans := segFiles(t, dir); len(orphans) != 0 {
		t.Errorf("after recovery: orphan segments remain: %v", orphans)
	}
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, ok := get(t, s2, k); !ok || v != want {
			t.Errorf("recovered get(%s) = %q,%v, want %q,true", k, v, ok, want)
		}
	}
}

// TestInjectedFlushSegmentFailureIsRetriable verifies the pre-write
// flush fault leaves no partial state: the failed flush can simply be
// retried.
func TestInjectedFlushSegmentFailureIsRetriable(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Injector = injector(t, "store.flush.segment=error#1")
	s := openTest(t, dir, opts)
	defer s.Close()
	mustAppend(t, s, "k", "v")

	if err := s.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first Flush = %v, want ErrInjected", err)
	}
	if orphans := segFiles(t, dir); len(orphans) != 0 {
		t.Fatalf("failed pre-write flush left files: %v", orphans)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("retried Flush = %v", err)
	}
	if got := s.Stats().Segments; got != 1 {
		t.Errorf("segments after retry = %d, want 1", got)
	}
}

// TestInjectedCompactionFailure arms the compaction fault and verifies
// the store keeps serving from the unmerged segments with the failure
// surfaced via Err.
func TestInjectedCompactionFailure(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.CompactAtSegments = 2
	opts.Injector = injector(t, "store.compact.write=error@1")
	s := openTest(t, dir, opts)

	mustAppend(t, s, "a", "1")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "b", "2")
	if err := s.Flush(); err != nil { // reaches the threshold: compaction starts
		t.Fatal(err)
	}
	err := s.Close() // waits for background work, surfaces the sticky error
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close = %v, want sticky injected compaction error", err)
	}

	s2 := openTest(t, dir, testOptions())
	defer s2.Close()
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, ok := get(t, s2, k); !ok || v != want {
			t.Errorf("get(%s) = %q,%v, want %q,true", k, v, ok, want)
		}
	}
}

// TestInjectedScheduleIsRecorded sanity-checks that store-level faults
// land in the injector's schedule with their site names.
func TestInjectedScheduleIsRecorded(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	in := injector(t, "store.wal.append=error#2")
	s.SetInjector(in)
	mustAppend(t, s, "ok", "1")
	if err := s.Append([]byte("boom"), nil); err == nil {
		t.Fatal("second append did not fail")
	}
	if got := in.ScheduleString(); !strings.Contains(got, "store.wal.append#2 error") {
		t.Errorf("schedule = %q, want store.wal.append#2 error", got)
	}
}
