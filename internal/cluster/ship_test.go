package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flare/internal/fault"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

// testLeader opens a leader store wired to a fresh shipper.
func testLeader(t testing.TB, shOpts ShipperOptions) (*store.Store, *Shipper) {
	t.Helper()
	if shOpts.Metrics == nil {
		shOpts.Metrics = NewMetrics(obs.NewRegistry())
	}
	sh := NewShipper(shOpts)
	opts := store.DefaultOptions()
	opts.Registry = obs.NewRegistry()
	opts.Replicate = sh.Record
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sh.Bind(st)
	t.Cleanup(func() { sh.Close() })
	return st, sh
}

func testFollower(t testing.TB, dir, name string) *Follower {
	t.Helper()
	opts := FollowerOptions{Metrics: NewMetrics(obs.NewRegistry())}
	opts.Store = store.DefaultOptions()
	opts.Store.Registry = obs.NewRegistry()
	f, err := OpenFollower(dir, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// serve pairs a shipper session with a follower-side conn over net.Pipe.
func serve(t testing.TB, sh *Shipper) io.ReadWriteCloser {
	t.Helper()
	leaderEnd, followerEnd := net.Pipe()
	go func() {
		_ = sh.ServeFollower(context.Background(), leaderEnd)
		leaderEnd.Close()
	}()
	return followerEnd
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// storeDirFiles reads every store file (segments, WALs, manifest).
func storeDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		name := e.Name()
		if name != "MANIFEST" && !strings.HasPrefix(name, "seg-") &&
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

func requireSameStoreDirs(t *testing.T, leaderDir, followerDir string) {
	t.Helper()
	lf, ff := storeDirFiles(t, leaderDir), storeDirFiles(t, followerDir)
	if len(lf) != len(ff) {
		t.Errorf("leader has %d store files, follower %d", len(lf), len(ff))
	}
	for name, want := range lf {
		got, ok := ff[name]
		if !ok {
			t.Errorf("follower is missing %s", name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between leader and follower", name)
		}
	}
}

// storeGet reads the newest value of key through Store.Scan.
func storeGet(t *testing.T, st *store.Store, key string) (val string, ok bool) {
	t.Helper()
	if err := st.Scan(func(k, v []byte) bool {
		if string(k) == key {
			val, ok = string(v), true
		}
		return string(k) < key
	}); err != nil {
		t.Fatal(err)
	}
	return val, ok
}

func appendN(t *testing.T, st *store.Store, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-%04d", prefix, i)
		if err := st.Append([]byte(key), []byte("value-"+key)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShipperStreamsLiveFollower(t *testing.T) {
	st, sh := testLeader(t, ShipperOptions{})
	defer st.Close()
	fdir := t.TempDir()
	f := testFollower(t, fdir, "follower-1")

	conn := serve(t, sh)
	go func() { _ = f.Run(context.Background(), conn) }()

	appendN(t, st, "live", 50)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, "tail", 10) // unflushed tail must replicate too

	waitFor(t, "follower to catch up", func() bool {
		return f.Applied() == sh.LastSeq() && sh.LastSeq() > 0
	})
	if v, ok := storeGet(t, f.Store(), "live-0007"); !ok || v != "value-live-0007" {
		t.Fatalf("follower get = %q, %v", v, ok)
	}
	// The follower advances Applied before writing the ack, so drain the
	// ack back to the leader before tearing the connection down.
	waitFor(t, "leader to record the final ack", func() bool {
		ls := sh.Followers()
		return len(ls) == 1 && ls[0].Acked == sh.LastSeq()
	})
	conn.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameStoreDirs(t, st.Dir(), fdir)

	lags := sh.Followers()
	if len(lags) != 1 || lags[0].Name != "follower-1" || lags[0].Lag != 0 {
		t.Errorf("Followers = %+v, want follower-1 at lag 0", lags)
	}
}

// TestFollowerCatchUpAfterKill is the satellite scenario: kill a
// follower mid-stream, write more frames (and a flush) on the leader,
// restart the follower from disk, and require byte-identical
// convergence via tail replay.
func TestFollowerCatchUpAfterKill(t *testing.T) {
	st, sh := testLeader(t, ShipperOptions{})
	defer st.Close()
	fdir := t.TempDir()
	f := testFollower(t, fdir, "follower-1")

	conn := serve(t, sh)
	done := make(chan struct{})
	go func() { _ = f.Run(context.Background(), conn); close(done) }()

	appendN(t, st, "before", 30)
	waitFor(t, "partial replication", func() bool { return f.Applied() >= 10 })
	conn.Close() // kill mid-stream
	<-done
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader keeps committing while the follower is down.
	appendN(t, st, "during", 40)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, "after", 20)

	// Restart from disk: the persisted cursor may be stale; idempotent
	// apply absorbs the overlap.
	f2 := testFollower(t, fdir, "follower-1")
	conn2 := serve(t, sh)
	go func() { _ = f2.Run(context.Background(), conn2) }()
	waitFor(t, "restarted follower to converge", func() bool {
		return f2.Applied() == sh.LastSeq()
	})
	if v, ok := storeGet(t, f2.Store(), "during-0033"); !ok || v != "value-during-0033" {
		t.Fatalf("follower missed writes made while down: %q, %v", v, ok)
	}
	conn2.Close()
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameStoreDirs(t, st.Dir(), fdir)
}

// TestFollowerSnapshotCatchUp forces the snapshot path by trimming the
// leader's event window below what the follower missed.
func TestFollowerSnapshotCatchUp(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	st, sh := testLeader(t, ShipperOptions{MaxLog: 4, Metrics: met})
	defer st.Close()

	// History the follower will never see as events: the window only
	// keeps the last 4.
	appendN(t, st, "old", 60)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, "tail", 3)

	fdir := t.TempDir()
	f := testFollower(t, fdir, "follower-1")
	conn := serve(t, sh)
	go func() { _ = f.Run(context.Background(), conn) }()
	waitFor(t, "snapshot bootstrap", func() bool { return f.Applied() == sh.LastSeq() })

	if met.snapshots.Value() == 0 {
		t.Error("no snapshot was sent despite the trimmed window")
	}
	if v, ok := storeGet(t, f.Store(), "old-0000"); !ok || v != "value-old-0000" {
		t.Fatalf("follower missing pre-window key: %q, %v", v, ok)
	}

	// The stream continues past the snapshot. Append one event at a
	// time: a burst could trim the 4-event window past the leader's send
	// cursor, which legitimately kills the session (RunLoop would
	// re-snapshot, but this test drives a single Run).
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("post-%04d", i)
		if err := st.Append([]byte(key), []byte("value-"+key)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "post-snapshot stream", func() bool { return f.Applied() == sh.LastSeq() })
	}
	conn.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameStoreDirs(t, st.Dir(), fdir)
}

// TestRunLoopReconnectsThroughFaults drives the full reconnect loop with
// a deterministic fault schedule killing the first two send attempts.
func TestRunLoopReconnectsThroughFaults(t *testing.T) {
	rules, err := fault.ParseSpec("cluster.ship.send=error#1")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(rules, 42, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st, sh := testLeader(t, ShipperOptions{Injector: inj})
	defer st.Close()

	appendN(t, st, "k", 20)

	fdir := t.TempDir()
	f := testFollower(t, fdir, "follower-1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dial := func(context.Context) (io.ReadWriteCloser, error) {
		return serve(t, sh), nil
	}
	loopDone := make(chan struct{})
	go func() {
		f.RunLoop(ctx, dial, retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond,
			Registry: obs.NewRegistry()})
		close(loopDone)
	}()
	waitFor(t, "convergence through injected stream faults", func() bool {
		return f.Applied() == sh.LastSeq() && sh.LastSeq() > 0
	})
	// A flush after the reconnect proves the stream survived the faults
	// end to end, and puts a manifest on both sides for the comparison.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flush replication", func() bool { return f.Applied() == sh.LastSeq() })
	cancel()
	<-loopDone
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameStoreDirs(t, st.Dir(), fdir)
}
