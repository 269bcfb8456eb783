package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flare/internal/obs"
)

// eventLog collects a leader's replication events in commit order.
type eventLog struct {
	mu  sync.Mutex
	evs []ReplicationEvent
}

func (l *eventLog) record(ev ReplicationEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) events() []ReplicationEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ReplicationEvent(nil), l.evs...)
}

// leaderWithLog opens a leader whose events are captured.
func leaderWithLog(t *testing.T, opts Options) (*Store, *eventLog) {
	t.Helper()
	log := &eventLog{}
	opts.Registry = obs.NewRegistry()
	opts.Replicate = log.record
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, log
}

// storeFiles reads every store file (segments, WALs, manifest) in dir.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		name := e.Name()
		if name != manifestName && !strings.HasPrefix(name, "seg-") &&
			!strings.HasPrefix(name, "wal-") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = buf
	}
	return out
}

// requireIdenticalDirs asserts two store directories hold exactly the
// same files with exactly the same bytes.
func requireIdenticalDirs(t *testing.T, leaderDir, replicaDir string) {
	t.Helper()
	lf, rf := storeFiles(t, leaderDir), storeFiles(t, replicaDir)
	for name, want := range lf {
		got, ok := rf[name]
		if !ok {
			t.Errorf("replica is missing %s", name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s differs: leader %d bytes, replica %d bytes", name, len(want), len(got))
		}
	}
	for name := range rf {
		if _, ok := lf[name]; !ok {
			t.Errorf("replica has extra file %s", name)
		}
	}
}

func applyAll(t *testing.T, r *Store, evs []ReplicationEvent) {
	t.Helper()
	for i, ev := range evs {
		if err := r.ApplyEvent(ev); err != nil {
			t.Fatalf("apply event %d (%v): %v", i, ev.Kind, err)
		}
	}
}

// TestReplicaConvergesByteIdentical drives a leader through appends,
// explicit flushes, and a background compaction, replays the event
// stream on a replica, and requires the two directories to be equal byte
// for byte — the invariant the whole replication design rests on.
func TestReplicaConvergesByteIdentical(t *testing.T) {
	opts := testOptions()
	opts.CompactAtSegments = 3
	leader, log := leaderWithLog(t, opts)

	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			key := fmt.Sprintf("k-%02d-%03d", round, i)
			val := fmt.Sprintf("v-%d-%d", round, i*i)
			if err := leader.Append([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
		if err := leader.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	leader.bg.Wait() // let the background compaction publish its event
	if err := leader.Err(); err != nil {
		t.Fatal(err)
	}
	// Tail writes that stay in the WAL (no flush) must replicate too.
	for i := 0; i < 10; i++ {
		if err := leader.Append([]byte(fmt.Sprintf("tail-%02d", i)), []byte("t")); err != nil {
			t.Fatal(err)
		}
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
	// The leader's durable files and the replica's must already agree
	// (before the leader closes: a leader close flushes, which the
	// replica only mirrors once it sees the event).
	requireIdenticalDirs(t, leader.Dir(), replicaDir)

	// And the replica must serve the same data after reopening.
	r2, err := OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for round := 0; round < 4; round++ {
		key := fmt.Sprintf("k-%02d-%03d", round, 7)
		want := fmt.Sprintf("v-%d-%d", round, 49)
		got, ok := get(t, r2, key)
		if !ok || got != want {
			t.Fatalf("replica get(%s) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if v, ok := get(t, r2, "tail-03"); !ok || v != "t" {
		t.Fatalf("replica lost unflushed tail record: %q, %v", v, ok)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaReapplyIsIdempotent replays the full event stream twice —
// the situation a follower with a stale resume cursor produces — and
// requires the second pass to change nothing.
func TestReplicaReapplyIsIdempotent(t *testing.T) {
	opts := testOptions()
	opts.CompactAtSegments = 2
	leader, log := leaderWithLog(t, opts)
	for i := 0; i < 60; i++ {
		if err := leader.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			if err := leader.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	leader.bg.Wait()

	replicaDir := t.TempDir()
	replica, err := OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	evs := log.events()
	applyAll(t, replica, evs)
	applyAll(t, replica, evs) // stale-cursor replay: every event re-delivered
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdenticalDirs(t, leader.Dir(), replicaDir)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRestartMidStream stops a replica partway through the
// stream, reopens it, replays from an earlier (stale) position, and
// requires convergence — the crash/restart path of a follower.
func TestReplicaRestartMidStream(t *testing.T) {
	leader, log := leaderWithLog(t, testOptions())
	for i := 0; i < 40; i++ {
		if err := leader.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if err := leader.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	evs := log.events()

	replicaDir := t.TempDir()
	replica, err := OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	applyAll(t, replica, evs[:half])
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	replica, err = OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, replica, evs) // replay everything: prefix must no-op
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdenticalDirs(t, leader.Dir(), replicaDir)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaSnapshotCatchUp bootstraps a fresh replica from an
// ExportFiles snapshot, then streams only the post-snapshot events.
func TestReplicaSnapshotCatchUp(t *testing.T) {
	leader, log := leaderWithLog(t, testOptions())
	for i := 0; i < 30; i++ {
		if err := leader.Append([]byte(fmt.Sprintf("old-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}

	var mark int
	files, err := leader.ExportFiles(func() { mark = len(log.events()) })
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 30; i++ {
		if err := leader.Append([]byte(fmt.Sprintf("new-%03d", i)), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}

	replicaDir := t.TempDir()
	if err := ImportFiles(replicaDir, files); err != nil {
		t.Fatal(err)
	}
	replica, err := OpenReplica(replicaDir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, replica, log.events()[mark:])
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdenticalDirs(t, leader.Dir(), replicaDir)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRejectsDirectWrites: a replica is read-only.
func TestReplicaRejectsDirectWrites(t *testing.T) {
	replica, err := OpenReplica(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.Append([]byte("k"), []byte("v")); !errors.Is(err, ErrReplica) {
		t.Errorf("Append on replica: %v, want ErrReplica", err)
	}
	if err := replica.Flush(); !errors.Is(err, ErrReplica) {
		t.Errorf("Flush on replica: %v, want ErrReplica", err)
	}
}

// TestReplicaDetectsGaps: an event stream with a hole must surface
// ErrReplicaDiverged instead of silently corrupting the replica.
func TestReplicaDetectsGaps(t *testing.T) {
	leader, log := leaderWithLog(t, testOptions())
	defer leader.Close()
	for i := 0; i < 5; i++ {
		if err := leader.Append([]byte(fmt.Sprintf("key-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	evs := log.events()
	if len(evs) < 3 {
		t.Fatalf("expected at least 3 frame events, got %d", len(evs))
	}

	replica, err := OpenReplica(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.ApplyEvent(evs[0]); err != nil {
		t.Fatal(err)
	}
	// Skip evs[1]: the next batch lands past the replica's WAL tail.
	if err := replica.ApplyEvent(evs[2]); !errors.Is(err, ErrReplicaDiverged) {
		t.Errorf("gap apply: %v, want ErrReplicaDiverged", err)
	}
	// A flush the replica has no basis for (wrong generation) diverges.
	if err := replica.ApplyEvent(ReplicationEvent{Kind: ReplFlush, SegID: 9, NewGen: 7,
		NextSegID: 10}); !errors.Is(err, ErrReplicaDiverged) {
		t.Errorf("future-generation flush: %v, want ErrReplicaDiverged", err)
	}
}

// TestReplicaApplyOnLeaderFails: ApplyEvent is replica-only.
func TestReplicaApplyOnLeaderFails(t *testing.T) {
	leader, _ := leaderWithLog(t, testOptions())
	defer leader.Close()
	if err := leader.ApplyEvent(ReplicationEvent{Kind: ReplFrames}); err == nil {
		t.Error("ApplyEvent on a leader did not error")
	}
}
