package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"flare/internal/fault"
	"flare/internal/obs"
	"flare/internal/store"
)

// errLogTrimmed aborts a session whose follower fell out of the retained
// event window mid-stream; the follower reconnects and bootstraps from a
// snapshot.
var errLogTrimmed = errors.New("cluster: follower fell behind retained event log")

// ShipperOptions tunes a Shipper.
type ShipperOptions struct {
	// MaxLog bounds the retained event window. A follower resuming from
	// before the window catches up from a store snapshot instead.
	// Default 1024.
	MaxLog int
	// Metrics receives the flare_cluster_* counters; nil records nothing.
	Metrics *Metrics
	// Injector arms the deterministic "cluster.ship.send" fault site:
	// an injected error drops the session exactly as a broken peer
	// connection would, exercising the reconnect path.
	Injector *fault.Injector
}

// Shipper is the leader side of WAL-shipping replication. It observes
// the store's ReplicationEvents (wire it as store.Options.Replicate via
// Record), assigns them contiguous sequence numbers starting at 1, keeps
// the most recent MaxLog of them, and streams them to any number of
// followers. A follower that resumes from inside the window replays the
// tail; one from before it (or bootstrapping fresh) first receives a
// locked snapshot of the store files captured atomically with its
// position in the event stream.
type Shipper struct {
	met *Metrics
	inj *fault.Injector

	mu      sync.Mutex
	cond    *sync.Cond
	st      *store.Store
	events  []store.ReplicationEvent
	baseSeq uint64 // seq of events[0]
	nextSeq uint64 // seq the next recorded event gets
	maxLog  int
	closed  bool
	acked   map[string]uint64 // follower name -> highest acked seq
}

// NewShipper builds a Shipper; bind the store with Bind after Open.
func NewShipper(opts ShipperOptions) *Shipper {
	if opts.MaxLog <= 0 {
		opts.MaxLog = 1024
	}
	met := opts.Metrics
	if met == nil {
		met = NewMetrics(nil)
	}
	sh := &Shipper{met: met, inj: opts.Injector, baseSeq: 1, nextSeq: 1,
		maxLog: opts.MaxLog, acked: make(map[string]uint64)}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// Record is the store.Options.Replicate hook: it assigns the event the
// next sequence number and wakes streaming sessions. The store calls it
// under its own locks, so it must stay lock-leaf and fast.
func (sh *Shipper) Record(ev store.ReplicationEvent) {
	sh.mu.Lock()
	sh.events = append(sh.events, ev)
	sh.nextSeq++
	if len(sh.events) > sh.maxLog {
		sh.events = sh.events[1:]
		sh.baseSeq++
		if cap(sh.events) > 2*sh.maxLog {
			sh.events = append(make([]store.ReplicationEvent, 0, sh.maxLog), sh.events...)
		}
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// Bind attaches the store the shipper snapshots lagging followers from.
// Call once, after store.Open, before serving followers.
func (sh *Shipper) Bind(st *store.Store) {
	sh.mu.Lock()
	sh.st = st
	sh.mu.Unlock()
}

// LastSeq returns the sequence number of the newest recorded event (0 if
// none yet).
func (sh *Shipper) LastSeq() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.nextSeq - 1
}

// FollowerLag describes one follower's replication progress.
type FollowerLag struct {
	Name  string `json:"name"`
	Acked uint64 `json:"acked_seq"`
	Lag   uint64 `json:"lag_events"`
}

// Followers reports per-follower lag, sorted by name.
func (sh *Shipper) Followers() []FollowerLag {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]FollowerLag, 0, len(sh.acked))
	for name, acked := range sh.acked {
		lag := uint64(0)
		if last := sh.nextSeq - 1; last > acked {
			lag = last - acked
		}
		out = append(out, FollowerLag{Name: name, Acked: acked, Lag: lag})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close wakes and ends every streaming session. It does not close the
// store.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	sh.closed = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// ServeFollower runs one replication session over conn: hello, optional
// snapshot, then the event stream until the connection drops, the
// context ends, or the shipper closes. Acks are consumed concurrently on
// the same connection. The caller owns conn and closes it afterwards.
func (sh *Shipper) ServeFollower(ctx context.Context, conn io.ReadWriter) error {
	ctx, sp := obs.StartSpan(ctx, "cluster.ship.serve")
	defer sp.End()
	sh.met.shipSessions.Inc()

	kind, payload, err := readMsg(conn)
	if err != nil {
		return err
	}
	if kind != msgHello {
		return fmt.Errorf("cluster: expected hello, got message kind %d", kind)
	}
	name, wantSeq, err := decodeHello(payload)
	if err != nil {
		return err
	}
	sp.SetAttr("follower", name)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The cond does not observe contexts; a watcher converts
	// cancellation (or an ack-reader failure) into a wake-up.
	go func() {
		<-ctx.Done()
		sh.cond.Broadcast()
	}()
	go sh.readAcks(conn, name, cancel)

	cur, err := sh.openStream(ctx, conn, name, wantSeq)
	if err != nil {
		return err
	}
	for {
		ev, err := sh.nextEvent(ctx, cur)
		if err != nil {
			return err
		}
		if ev == nil {
			return nil // shipper closed: clean end of stream
		}
		// Fault site: the stream breaks mid-send, exactly like a peer
		// vanishing; the follower reconnects and resumes or resyncs.
		if err := sh.inj.Err("cluster.ship.send"); err != nil {
			return fmt.Errorf("cluster: ship send: %w", err)
		}
		payload := encodeEvent(cur, *ev)
		if err := writeMsg(conn, msgEvent, payload); err != nil {
			return err
		}
		sh.met.shipEvents.Inc()
		sh.met.shipBytes.Add(uint64(len(payload)))
		cur++
	}
}

// openStream decides how the session starts — tail replay or snapshot
// bootstrap — and returns the first event seq to stream.
func (sh *Shipper) openStream(ctx context.Context, conn io.ReadWriter, name string, wantSeq uint64) (uint64, error) {
	sh.mu.Lock()
	if _, ok := sh.acked[name]; !ok {
		acked := uint64(0)
		if wantSeq > 0 {
			acked = wantSeq - 1
		}
		sh.acked[name] = acked
	}
	st := sh.st
	inWindow := wantSeq >= sh.baseSeq
	sh.mu.Unlock()
	if wantSeq > 0 && inWindow {
		return wantSeq, nil
	}
	if st == nil {
		return 0, errors.New("cluster: shipper has no bound store for snapshot")
	}

	_, sp := obs.StartSpan(ctx, "cluster.ship.snapshot")
	defer sp.End()
	// The mark runs while the store holds both its locks, so no event
	// can be recorded concurrently: the snapshot corresponds exactly to
	// the stream position it reports. Lock order is store, then shipper.
	var snapSeq uint64
	files, err := st.ExportFiles(func() {
		sh.mu.Lock()
		snapSeq = sh.nextSeq - 1
		sh.mu.Unlock()
	})
	if err != nil {
		return 0, err
	}
	sp.SetAttr("files", len(files))
	if err := writeMsg(conn, msgSnapshot, encodeSnapshot(snapSeq, files)); err != nil {
		return 0, err
	}
	sh.met.snapshots.Inc()
	return snapSeq + 1, nil
}

// nextEvent blocks until event seq exists, returning nil on a clean
// shipper close and an error on cancellation or a trimmed log.
func (sh *Shipper) nextEvent(ctx context.Context, seq uint64) (*store.ReplicationEvent, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for !sh.closed && ctx.Err() == nil && seq >= sh.nextSeq {
		sh.cond.Wait()
	}
	if sh.closed {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if seq < sh.baseSeq {
		return nil, errLogTrimmed
	}
	ev := sh.events[seq-sh.baseSeq]
	return &ev, nil
}

// readAcks consumes follower acks until the connection drops, updating
// the lag accounting; any failure cancels the session's send loop.
func (sh *Shipper) readAcks(conn io.Reader, name string, cancel context.CancelFunc) {
	defer cancel()
	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return
		}
		if kind != msgAck {
			return
		}
		applied, err := decodeAck(payload)
		if err != nil {
			return
		}
		sh.mu.Lock()
		if applied > sh.acked[name] {
			sh.acked[name] = applied
		}
		lag := uint64(0)
		if last := sh.nextSeq - 1; last > applied {
			lag = last - applied
		}
		sh.mu.Unlock()
		sh.met.lagGauge(name).Set(float64(lag))
	}
}
