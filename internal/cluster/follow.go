package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"flare/internal/fault"
	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

// replseqName is the follower's resume-cursor sidecar: the highest
// applied event seq, as decimal text, in the replica directory. It is
// persisted lazily (every persistEvery events and at session end); a
// stale cursor only causes idempotent re-applies on reconnect.
const replseqName = "REPLSEQ"

const persistEvery = 64

// FollowerOptions tunes a Follower.
type FollowerOptions struct {
	// Store configures the replica store (registry, sync policy).
	Store store.Options
	// Metrics receives the flare_cluster_* counters; nil registers a set
	// on the replica store's registry.
	Metrics *Metrics
	// Injector arms the deterministic "cluster.follow.apply" fault site:
	// an injected error aborts the session before an apply, exercising
	// reconnect-and-resume.
	Injector *fault.Injector
}

// Follower is the receiving side of WAL-shipping replication: it owns a
// replica store, applies the leader's event stream to it, persists a
// resume cursor, and — when it has diverged or fallen out of the
// leader's event window — rebuilds itself from a streamed snapshot.
type Follower struct {
	dir  string
	name string
	opts FollowerOptions
	met  *Metrics

	mu      sync.Mutex
	st      *store.Store
	applied uint64 // highest applied event seq
	dirty   int    // applies since the cursor was last persisted
	closed  bool
}

// OpenFollower opens (creating if needed) the replica in dir. name
// identifies this follower to leaders (lag accounting is keyed by it).
func OpenFollower(dir, name string, opts FollowerOptions) (*Follower, error) {
	if name == "" {
		return nil, errors.New("cluster: follower needs a name")
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics(opts.Store.Registry)
	}
	st, err := store.OpenReplica(dir, opts.Store)
	if err != nil {
		return nil, err
	}
	f := &Follower{dir: dir, name: name, opts: opts, met: opts.Metrics, st: st}
	if buf, err := os.ReadFile(filepath.Join(dir, replseqName)); err == nil {
		if seq, perr := strconv.ParseUint(strings.TrimSpace(string(buf)), 10, 64); perr == nil {
			f.applied = seq
		}
		// An unreadable cursor is not fatal: applied stays 0 and the
		// next session bootstraps from a snapshot.
	}
	return f, nil
}

// Store returns the current replica store for reads. The pointer is
// replaced when a snapshot import rebuilds the replica, so callers
// should re-fetch rather than cache it.
func (f *Follower) Store() *store.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Applied returns the highest applied event sequence number.
func (f *Follower) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Close persists the cursor and closes the replica store.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	st := f.st
	f.mu.Unlock()
	err := f.persistSeq()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// persistSeq writes the resume cursor. Durability is best-effort by
// design: losing it only costs a snapshot bootstrap on the next session.
func (f *Follower) persistSeq() error {
	f.mu.Lock()
	seq := f.applied
	f.dirty = 0
	f.mu.Unlock()
	return os.WriteFile(filepath.Join(f.dir, replseqName),
		[]byte(strconv.FormatUint(seq, 10)+"\n"), 0o644)
}

// Run executes one replication session over conn: hello with the resume
// position, then apply the stream until it ends. It returns io.EOF when
// the leader closes cleanly; callers that want automatic reconnection
// use RunLoop.
func (f *Follower) Run(ctx context.Context, conn io.ReadWriter) error {
	_, sp := obs.StartSpan(ctx, "cluster.follow.stream")
	defer sp.End()
	defer func() {
		if err := f.persistSeq(); err != nil {
			sp.SetAttr("persist_error", err.Error())
		}
	}()

	f.mu.Lock()
	wantSeq := f.applied + 1
	if f.applied == 0 {
		wantSeq = 0 // no history: ask for a snapshot bootstrap
	}
	f.mu.Unlock()
	if err := writeMsg(conn, msgHello, encodeHello(f.name, wantSeq)); err != nil {
		return err
	}

	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return err // io.EOF for a clean leader close
		}
		// Fault site: the follower dies between receiving and applying —
		// the worst case for cursor staleness, which idempotent apply
		// absorbs on reconnect.
		if err := f.opts.Injector.Err("cluster.follow.apply"); err != nil {
			return fmt.Errorf("cluster: follow apply: %w", err)
		}
		switch kind {
		case msgSnapshot:
			baseSeq, files, err := decodeSnapshot(payload)
			if err != nil {
				return err
			}
			if err := f.importSnapshot(ctx, baseSeq, files); err != nil {
				return err
			}
		case msgEvent:
			seq, ev, err := decodeEvent(payload)
			if err != nil {
				return err
			}
			if err := f.applyOne(seq, ev); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: unexpected message kind %d", kind)
		}
		if err := writeMsg(conn, msgAck, encodeAck(f.Applied())); err != nil {
			return err
		}
	}
}

// applyOne applies one streamed event and advances the cursor.
func (f *Follower) applyOne(seq uint64, ev store.ReplicationEvent) error {
	f.mu.Lock()
	st, applied := f.st, f.applied
	f.mu.Unlock()
	if seq <= applied {
		return nil // stale re-delivery; the store would skip it anyway
	}
	if seq != applied+1 {
		return fmt.Errorf("cluster: event seq %d after %d breaks stream order", seq, applied)
	}
	if err := st.ApplyEvent(ev); err != nil {
		if errors.Is(err, store.ErrReplicaDiverged) {
			// Local state can no longer follow the stream: drop the
			// cursor so the next session bootstraps from a snapshot.
			f.mu.Lock()
			f.applied = 0
			f.mu.Unlock()
			f.met.resyncs.Inc()
			if perr := f.persistSeq(); perr != nil {
				return fmt.Errorf("cluster: resetting cursor: %w", perr)
			}
		}
		return err
	}
	f.met.applyEvents.Inc()
	f.mu.Lock()
	f.applied = seq
	f.dirty++
	persist := f.dirty >= persistEvery
	f.mu.Unlock()
	if persist {
		if err := f.persistSeq(); err != nil {
			return fmt.Errorf("cluster: persisting cursor: %w", err)
		}
	}
	return nil
}

// importSnapshot replaces the replica with a leader snapshot positioned
// at baseSeq in the event stream.
func (f *Follower) importSnapshot(ctx context.Context, baseSeq uint64, files []store.SnapshotFile) error {
	_, sp := obs.StartSpan(ctx, "cluster.follow.import")
	defer sp.End()
	sp.SetAttr("files", len(files))

	f.mu.Lock()
	st := f.st
	f.mu.Unlock()
	if err := st.Close(); err != nil {
		return fmt.Errorf("cluster: closing replica for import: %w", err)
	}
	if err := store.ImportFiles(f.dir, files); err != nil {
		return err
	}
	nst, err := store.OpenReplica(f.dir, f.opts.Store)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.st = nst
	f.applied = baseSeq
	f.dirty = 0
	f.mu.Unlock()
	if err := f.persistSeq(); err != nil {
		return fmt.Errorf("cluster: persisting cursor after import: %w", err)
	}
	return nil
}

// RunLoop keeps a follower connected until ctx ends: dial, run one
// session, and on any failure back off and redial under policy, bound
// once for the loop's lifetime. A cleanly closed stream (leader
// shutdown) is also retried — shutting the follower down is the
// caller's cancellation, not the leader's.
func (f *Follower) RunLoop(ctx context.Context, dial func(context.Context) (io.ReadWriteCloser, error), policy retry.Policy) {
	bound := policy.Bind()
	for ctx.Err() == nil {
		// Each Do is one bounded reconnect burst; the outer loop makes
		// the burst sequence unbounded while ctx lives.
		_ = bound.Do(ctx, func() error {
			conn, err := dial(ctx)
			if err != nil {
				return err
			}
			defer conn.Close()
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			defer stop()
			err = f.Run(ctx, conn)
			if err == nil {
				err = io.EOF
			}
			if ctx.Err() != nil {
				return retry.Permanent(err)
			}
			return err
		})
	}
}
