package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"flare/internal/fault"
)

// batchOf builds n records keyed prefix-000, prefix-001, ...
func batchOf(prefix string, n int) []KV {
	recs := make([]KV, n)
	for i := range recs {
		recs[i] = KV{Key: []byte(fmt.Sprintf("%s-%03d", prefix, i)),
			Value: []byte(fmt.Sprintf("v%d", i*i))}
	}
	return recs
}

// counter reads one of the store's flare_store_* counters.
func counter(s *Store, name string) uint64 {
	return s.Registry().Counter(name, "").Value()
}

func walSize(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(walPath(s.Dir(), uint64(s.Stats().WALGeneration)))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestAppendBatchIsOneCommit writes a batch and checks it cost one WAL
// commit, counts every record, and reads back in key order.
func TestAppendBatchIsOneCommit(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	recs := batchOf("k", 50)
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := counter(s, "flare_store_wal_commit_batches_total"); got != 1 {
		t.Errorf("commit batches = %d, want 1", got)
	}
	if got := counter(s, "flare_store_wal_appends_total"); got != 50 {
		t.Errorf("wal appends = %d, want 50", got)
	}
	keys, vals := collect(t, s)
	if len(keys) != 50 {
		t.Fatalf("visible keys = %d, want 50", len(keys))
	}
	for i := range recs {
		if keys[i] != string(recs[i].Key) || vals[i] != string(recs[i].Value) {
			t.Fatalf("record %d = %s=%s, want %s=%s", i, keys[i], vals[i], recs[i].Key, recs[i].Value)
		}
	}
}

func TestAppendBatchEmptyIsNoop(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	for _, recs := range [][]KV{nil, {}} {
		if err := s.AppendBatch(recs); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
	}
	if got := counter(s, "flare_store_wal_commit_batches_total"); got != 0 {
		t.Errorf("commit batches = %d, want 0", got)
	}
	if n := walSize(t, s); n != 0 {
		t.Errorf("wal holds %d bytes after empty batches, want 0", n)
	}
}

// TestAppendBatchRejectsWholeBatch puts one invalid record behind valid
// ones: the batch must fail before any byte reaches the WAL.
func TestAppendBatchRejectsWholeBatch(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	cases := map[string]KV{
		"empty key": {Key: nil, Value: []byte("v")},
		"oversize":  {Key: []byte("big"), Value: make([]byte, maxFrameSize)},
	}
	for name, bad := range cases {
		recs := append(batchOf("ok", 3), bad)
		if err := s.AppendBatch(recs); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
	if n := walSize(t, s); n != 0 {
		t.Errorf("wal holds %d bytes after rejected batches, want 0", n)
	}
	if n := count(t, s); n != 0 {
		t.Errorf("%d keys visible after rejected batches, want 0", n)
	}
}

// TestAppendBatchFlushesOnce crosses FlushBytes several times over in
// one batch: the store flushes once, after the whole batch is in.
func TestAppendBatchFlushesOnce(t *testing.T) {
	opts := testOptions()
	opts.FlushBytes = 256
	s := openTest(t, t.TempDir(), opts)
	defer s.Close()
	if err := s.AppendBatch(batchOf("key", 64)); err != nil {
		t.Fatal(err)
	}
	if got := counter(s, "flare_store_flushes_total"); got != 1 {
		t.Errorf("flushes = %d, want 1", got)
	}
	if st := s.Stats(); st.Segments != 1 || st.MemtableKeys != 0 {
		t.Errorf("stats = %+v, want 1 segment and an empty memtable", st)
	}
	if n := count(t, s); n != 64 {
		t.Errorf("visible keys = %d, want 64", n)
	}
}

// TestAppendBatchTornTail cuts the WAL at every byte inside one batch's
// frames, as a crash mid-write would: recovery keeps exactly the batch's
// complete leading frames, a prefix of its records.
func TestAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	recs := batchOf("k", 6)
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	var ends []int // byte offset where each record's frame ends
	for _, r := range recs {
		enc = appendFrame(enc, r.Key, r.Value)
		ends = append(ends, len(enc))
	}
	if !bytes.Equal(enc, full) {
		t.Fatalf("setup: wal (%d bytes) is not the batch's %d frames", len(full), len(recs))
	}
	for cut := 0; cut < len(full); cut++ {
		want := 0
		for want < len(ends) && ends[want] <= cut {
			want++
		}
		crash := t.TempDir()
		if err := os.WriteFile(walPath(crash, 0), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs := openTest(t, crash, testOptions())
		keys, _ := collect(t, rs)
		if len(keys) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(keys), want)
		}
		for i, k := range keys {
			if k != string(recs[i].Key) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, k, recs[i].Key)
			}
		}
		rs.Close()
	}
}

// TestAppendBatchFaultCountsOnce arms the append site for its first
// firing: exactly one batch fails, whole, and the next one lands.
func TestAppendBatchFaultCountsOnce(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	in := injector(t, "store.wal.append=error#1")
	s.SetInjector(in)
	if err := s.AppendBatch(batchOf("a", 5)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first batch = %v, want ErrInjected", err)
	}
	if err := s.AppendBatch(batchOf("b", 5)); err != nil {
		t.Fatalf("second batch: %v", err)
	}
	if in.Injected() != 1 {
		t.Errorf("injected = %d, want 1", in.Injected())
	}
	keys, _ := collect(t, s)
	if fmt.Sprint(keys) != "[b-000 b-001 b-002 b-003 b-004]" {
		t.Errorf("visible keys = %v, want only the second batch", keys)
	}
}

// TestCloseKeepsFinishedCompaction closes right after the flush that
// reaches CompactAtSegments: Close must let the compaction install, so
// repeated open/flush/close cycles stay compacted.
func TestCloseKeepsFinishedCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.CompactAtSegments = 3
	for i := 0; i < 9; i++ {
		s := openTest(t, dir, opts) // opts.Registry is shared: counters add up
		mustAppend(t, s, fmt.Sprintf("k%d", i), "v")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := openTest(t, dir, opts)
	defer s.Close()
	if got := opts.Registry.Counter("flare_store_compactions_total", "").Value(); got == 0 {
		t.Error("no compaction installed")
	}
	if got := s.Stats().Segments; got >= 3 {
		t.Errorf("live segments = %d, want < 3", got)
	}
	if got := len(segFiles(t, dir)); got != s.Stats().Segments {
		t.Errorf("%d segment files on disk, manifest has %d", got, s.Stats().Segments)
	}
	if n := count(t, s); n != 9 {
		t.Errorf("visible keys = %d, want 9", n)
	}
}

// TestReplicaBatchConverges drives a leader through AppendBatch, flushes
// and a compaction, replays its events on a replica, and requires the
// two directories to match byte for byte.
func TestReplicaBatchConverges(t *testing.T) {
	opts := testOptions()
	opts.CompactAtSegments = 3
	leader, log := leaderWithLog(t, opts)
	defer leader.Close()
	for round := 0; round < 4; round++ {
		if err := leader.AppendBatch(batchOf(fmt.Sprintf("r%d", round), 20)); err != nil {
			t.Fatal(err)
		}
		if err := leader.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	leader.bg.Wait()
	if err := leader.AppendBatch(batchOf("tail", 7)); err != nil {
		t.Fatal(err)
	}
	if got := leader.Registry().Counter("flare_store_compactions_total", "").Value(); got == 0 {
		t.Fatal("setup: no compaction")
	}

	replicaDir := t.TempDir()
	replica, err := OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, replica, log.events())
	lk, lv := collect(t, leader)
	rk, rv := collect(t, replica)
	if fmt.Sprint(lk, lv) != fmt.Sprint(rk, rv) {
		t.Error("replica scan differs from leader")
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdenticalDirs(t, leader.Dir(), replicaDir)
}

// TestReplicaCompactionAfterRacingFlush replays the interleaving a
// background compaction can hit: it takes its segment id, a flush
// publishes, then the compaction installs. The replica must apply that
// compaction, not skip it as a re-delivery of the flush's position.
func TestReplicaCompactionAfterRacingFlush(t *testing.T) {
	opts := testOptions()
	opts.CompactAtSegments = 0 // the test drives the compaction itself
	leader, log := leaderWithLog(t, opts)
	defer leader.Close()
	for round := 0; round < 3; round++ {
		if err := leader.AppendBatch(batchOf(fmt.Sprintf("r%d", round), 5)); err != nil {
			t.Fatal(err)
		}
		if err := leader.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	leader.mu.Lock()
	inputs := leader.man.Segments
	segID := leader.nextSeg // the compaction's id, as compact takes it
	leader.nextSeg++
	leader.mu.Unlock()
	if err := leader.AppendBatch(batchOf("racing", 5)); err != nil {
		t.Fatal(err)
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := leader.compactAs(inputs, segID, true); err != nil {
		t.Fatal(err)
	}

	replicaDir := t.TempDir()
	replica, err := OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, replica, log.events())
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdenticalDirs(t, leader.Dir(), replicaDir)
}
