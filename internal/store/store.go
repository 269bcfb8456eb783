package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"flare/internal/fault"
	"flare/internal/obs"
)

// Options tunes a store. The zero value is usable: defaults are filled in
// by Open.
type Options struct {
	// FlushBytes is the memtable size that triggers a flush to a segment
	// file. Default 4 MiB.
	FlushBytes int
	// SyncWrites fsyncs every WAL commit batch. Default true via
	// DefaultOptions; turning it off trades the last batch on power loss
	// for append throughput (process crashes still lose nothing — the OS
	// holds the written bytes).
	SyncWrites bool
	// CompactAtSegments merges all live segments into one when the live
	// count reaches this threshold; <= 0 disables compaction. Default 4.
	CompactAtSegments int
	// Registry receives the flare_store_* telemetry and, through
	// metricdb, the journal's retry counters; nil records nothing.
	Registry *obs.Registry
	// Injector, when non-nil, arms deterministic fault injection on the
	// store's durability paths. Sites: "store.wal.append" (appends fail
	// or slow down before reaching the log), "store.flush.segment"
	// (segment write fails cleanly), "store.flush.publish" (crash point
	// between the segment write and the manifest publish — the orphan-
	// segment window), and "store.compact.write" (background compaction
	// fails). See internal/fault.
	Injector *fault.Injector
	// Replicate, when non-nil, observes every durable state transition
	// (committed WAL batch, flush publish, compaction install) as a
	// ReplicationEvent, in commit order. WAL-shipping replication hangs
	// off this hook; see replica.go. The callback runs on the committing
	// goroutine while store locks are held, so it must be fast and must
	// never call back into the store.
	Replicate func(ReplicationEvent)
}

// DefaultOptions returns durable defaults.
func DefaultOptions() Options {
	return Options{FlushBytes: 4 << 20, SyncWrites: true, CompactAtSegments: 4}
}

// Store is an embedded, crash-safe key/value store with sorted snapshot
// scans. Keys are unique (last write wins) and returned in ascending byte
// order. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	met  *storeMetrics

	// inj is swappable at runtime (SetInjector) so tests and operators
	// can start an outage against an already-open store.
	inj atomic.Pointer[fault.Injector]

	// rot serialises WAL rotation with appends: every Append holds it for
	// read across (WAL append, memtable insert), so Flush — holding it for
	// write — observes a memtable that exactly matches the WAL generation
	// it retires.
	rot sync.RWMutex

	// mu guards the mutable catalog: memtable, live segments, manifest.
	mu       sync.Mutex
	wal      *wal
	mem      map[string][]byte
	memBytes int
	segs     []*segment // oldest first
	man      manifestState
	nextSeg  uint64 // in-memory segment-id allocator (>= man.NextSegID)

	compacting bool
	closed     bool
	bg         sync.WaitGroup
	bgErr      error // sticky background (compaction) failure

	// replica marks a store opened with OpenReplica: it mutates only
	// through Apply* (driven by a leader's replication events), rejects
	// Append/Flush, never self-compacts, and does not flush on Close —
	// its on-disk state must stay a byte-exact prefix of the leader's.
	replica bool
}

// Open opens (creating if needed) the store in dir, replaying the current
// WAL generation into the memtable. A torn WAL tail — the signature of a
// crash mid-append — is truncated to the last complete record. Orphan
// segment and WAL files not named by the manifest (crash between a file
// write and its manifest publish) are deleted.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = DefaultOptions().FlushBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating dir: %w", err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	met := newStoreMetrics(opts.Registry)

	s := &Store{dir: dir, opts: opts, met: met, man: man,
		nextSeg: man.NextSegID, mem: make(map[string][]byte)}
	s.inj.Store(opts.Injector)
	for _, id := range man.Segments {
		seg, err := openSegment(dir, id)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if err := s.removeOrphans(); err != nil {
		return nil, err
	}
	f, size, err := s.recoverWAL()
	if err != nil {
		return nil, err
	}
	s.wal = newWAL(f, man.WALGen, size, opts.SyncWrites, met, s.walHook())
	met.segsLive.Set(float64(len(s.segs)))
	return s, nil
}

// recoverWAL replays wal-<gen>.log into the memtable, truncating a torn
// tail, and returns the file positioned for appends together with the
// valid (durable) byte length.
func (s *Store) recoverWAL() (*os.File, uint64, error) {
	path := walPath(s.dir, s.man.WALGen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: opening wal: %w", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: reading wal: %w", err)
	}
	recs, valid := decodeFrames(buf)
	for _, r := range recs {
		s.memInsert(r.key, r.value)
	}
	s.met.recovered.Add(uint64(len(recs)))
	if valid < len(buf) {
		// Torn or corrupt tail: keep every complete record, drop the rest.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: syncing truncated wal: %w", err)
		}
		s.met.tornTails.Inc()
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: seeking wal: %w", err)
	}
	return f, uint64(valid), nil
}

// removeOrphans deletes segment and WAL files the manifest does not name.
func (s *Store) removeOrphans() error {
	live := make(map[string]bool, len(s.man.Segments)+1)
	for _, id := range s.man.Segments {
		live[filepath.Base(segmentPath(s.dir, id))] = true
	}
	live[filepath.Base(walPath(s.dir, s.man.WALGen))] = true
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: listing dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		orphan := (strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "wal-") ||
			strings.HasSuffix(name, ".tmp")) && !live[name]
		if orphan {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("store: removing orphan %s: %w", name, err)
			}
		}
	}
	return nil
}

// memInsert stores one pair in the memtable (caller holds mu or is
// single-threaded recovery). Slices are copied; last write wins.
func (s *Store) memInsert(key, value []byte) {
	k := string(key)
	if old, ok := s.mem[k]; ok {
		s.memBytes -= len(k) + len(old)
	}
	s.mem[k] = append([]byte(nil), value...)
	s.memBytes += len(k) + len(value)
}

// SetInjector replaces the store's fault injector (nil disables
// injection). Safe to call while the store is serving; in-flight
// operations may still observe the previous injector.
func (s *Store) SetInjector(in *fault.Injector) { s.inj.Store(in) }

// injector returns the current fault injector (possibly nil; all
// injector methods are nil-safe).
func (s *Store) injector() *fault.Injector { return s.inj.Load() }

// Append durably writes one key/value pair: the record is on disk (in the
// WAL) before Append returns. Concurrent appenders share fsyncs via group
// commit. An empty key is invalid; a repeated key overwrites (last write
// wins).
func (s *Store) Append(key, value []byte) error {
	if len(key) == 0 {
		return errors.New("store: empty key")
	}
	if s.replica {
		return ErrReplica
	}
	// Fault site: a failed or slow disk write, surfaced before any lock
	// is held so injected latency does not serialise healthy appenders.
	if err := s.injector().Err("store.wal.append"); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if len(key)+len(value)+frameHeaderSize > maxFrameSize {
		return fmt.Errorf("store: record for key %q exceeds %d bytes", key, maxFrameSize)
	}
	s.rot.RLock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rot.RUnlock()
		return errors.New("store: closed")
	}
	w := s.wal
	s.mu.Unlock()

	frame := appendFrame(nil, key, value)
	if err := w.append(frame); err != nil {
		s.rot.RUnlock()
		return err
	}
	s.met.walAppends.Inc()

	s.mu.Lock()
	s.memInsert(key, value)
	needFlush := s.memBytes >= s.opts.FlushBytes
	s.mu.Unlock()
	s.rot.RUnlock()

	if needFlush {
		return s.Flush()
	}
	return nil
}

// Get returns the newest value for key (memtable first, then segments
// newest-to-oldest).
func (s *Store) Get(key []byte) ([]byte, bool) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.Get(key)
}

// Flush persists the memtable as a new segment, publishes it in the
// manifest together with a fresh WAL generation, and deletes the retired
// WAL. A crash at any point recovers cleanly: before the manifest publish
// the old WAL still holds every record (the new segment is an orphan);
// after it, the segment holds them (the old WAL is an orphan). An empty
// memtable is a no-op.
func (s *Store) Flush() error {
	if s.replica {
		return ErrReplica
	}
	s.rot.Lock()
	defer s.rot.Unlock()
	return s.flushLocked()
}

// flushLocked is Flush with s.rot already write-held: it allocates the
// segment and WAL-generation ids, runs the leader-only fault sites, and
// hands off to flushAs for the shared mechanics.
func (s *Store) flushLocked() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if len(s.mem) == 0 {
		s.mu.Unlock()
		return nil
	}
	segID := s.nextSeg
	s.nextSeg++
	newGen := s.man.WALGen + 1
	s.mu.Unlock()

	// Fault site: the segment write fails before any bytes are
	// published; the memtable and WAL are untouched, so the flush can
	// simply be retried.
	if err := s.injector().Err("store.flush.segment"); err != nil {
		return fmt.Errorf("store: writing segment: %w", err)
	}
	if err := s.flushAs(segID, newGen, true); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// flushAs persists the memtable as segment segID and rotates the WAL to
// generation newGen — the core shared by a leader flush and a replica's
// ApplyFlush. The caller holds s.rot for write and has already allocated
// (leader) or validated (replica) the ids; on a replica s.nextSeg has
// been pre-set to the leader's published NextSegID so both manifests
// serialise byte-identically. Because rot excludes appenders and
// sortedEntries orders deterministically, identical memtable contents
// produce identical segment bytes on every node.
func (s *Store) flushAs(segID, newGen uint64, leader bool) error {
	s.mu.Lock()
	entries := sortedEntries(s.mem)
	s.mu.Unlock()

	if _, err := writeSegment(s.dir, segID, entries); err != nil {
		return err
	}
	seg, err := openSegment(s.dir, segID)
	if err != nil {
		return err
	}
	// Crash point: the segment file is durably on disk but the manifest
	// does not name it yet. Aborting here — deliberately with NO cleanup
	// — leaves exactly the orphan a real crash would: recovery must keep
	// serving from the WAL and delete the unpublished segment.
	if leader {
		if err := s.injector().Err("store.flush.publish"); err != nil {
			return fmt.Errorf("store: publishing flush: %w", err)
		}
	}

	// New WAL generation first: the manifest must never point at a WAL
	// that does not exist yet.
	nf, err := os.OpenFile(walPath(s.dir, newGen), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating wal: %w", err)
	}

	s.mu.Lock()
	oldWAL := s.wal
	oldGen := s.man.WALGen
	man := s.man
	man.WALGen = newGen
	man.NextSegID = s.nextSeg
	man.Segments = append(append([]uint64(nil), man.Segments...), segID)
	if err := saveManifest(s.dir, man); err != nil {
		s.mu.Unlock()
		nf.Close()
		os.Remove(walPath(s.dir, newGen))
		os.Remove(seg.path)
		return err
	}
	s.man = man
	s.segs = append(s.segs, seg)
	s.wal = newWAL(nf, newGen, 0, s.opts.SyncWrites, s.met, s.walHook())
	s.mem = make(map[string][]byte)
	s.memBytes = 0
	s.met.flushes.Inc()
	s.met.segsLive.Set(float64(len(s.segs)))
	if leader {
		s.emit(ReplicationEvent{Kind: ReplFlush, SegID: segID,
			NewGen: newGen, NextSegID: man.NextSegID})
	}
	s.mu.Unlock()

	_ = oldWAL.close()
	_ = os.Remove(walPath(s.dir, oldGen))
	return nil
}

// sortedEntries snapshots a memtable as ascending entries.
func sortedEntries(mem map[string][]byte) []entry {
	entries := make([]entry, 0, len(mem))
	for k, v := range mem {
		entries = append(entries, entry{key: []byte(k), value: v})
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].key, entries[j].key) < 0
	})
	return entries
}

// maybeCompact starts a background merge of the current live segments
// when the count reaches the threshold.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica || s.opts.CompactAtSegments <= 0 || s.compacting || s.closed ||
		len(s.segs) < s.opts.CompactAtSegments {
		return
	}
	s.compacting = true
	merge := make([]*segment, len(s.segs))
	copy(merge, s.segs) // current segments form a stable prefix of s.segs
	for _, seg := range merge {
		seg.acquire()
	}
	s.bg.Add(1)
	go s.compact(merge)
}

// compact merges segments (oldest first, newest value wins) into one new
// segment and installs it in the manifest in place of the inputs. On any
// failure — or if the store closed meanwhile — the merge output is
// abandoned; the store keeps serving from the old segments.
func (s *Store) compact(merge []*segment) {
	defer s.bg.Done()
	defer func() {
		for _, seg := range merge {
			seg.release()
		}
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()

	merged := mergeSegments(merge)
	s.mu.Lock()
	segID := s.nextSeg
	s.nextSeg++
	s.mu.Unlock()
	// Fault site: background compaction failure. The store keeps serving
	// from the unmerged segments; the error is sticky via Err/Close.
	if err := s.injector().Err("store.compact.write"); err != nil {
		s.setBgErr(fmt.Errorf("store: compaction: %w", err))
		return
	}
	if _, err := writeSegment(s.dir, segID, merged); err != nil {
		s.setBgErr(err)
		return
	}
	seg, err := openSegment(s.dir, segID)
	if err != nil {
		s.setBgErr(err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = os.Remove(seg.path)
		return
	}
	man := s.man
	man.NextSegID = s.nextSeg
	// The merged inputs are a prefix of the live list; anything flushed
	// during the merge stays, ordered after the merged output.
	man.Segments = append([]uint64{segID}, man.Segments[len(merge):]...)
	if err := saveManifest(s.dir, man); err != nil {
		s.mu.Unlock()
		_ = os.Remove(seg.path)
		s.setBgErr(err)
		return
	}
	old := s.segs[:len(merge)]
	s.man = man
	s.segs = append([]*segment{seg}, s.segs[len(merge):]...)
	s.met.compactions.Inc()
	s.met.segsLive.Set(float64(len(s.segs)))
	s.emit(ReplicationEvent{Kind: ReplCompact, SegID: segID,
		Inputs: len(merge), NextSegID: man.NextSegID})
	s.mu.Unlock()

	for _, seg := range old {
		seg.markDead()
	}
}

// mergeSegments k-way merges sorted runs, newest run winning duplicates.
func mergeSegments(segs []*segment) []entry {
	idx := make([]int, len(segs))
	var out []entry
	for {
		// Smallest key across runs; among ties the newest (highest index)
		// run supplies the value and every tied run advances.
		var best []byte
		for i, seg := range segs {
			if idx[i] >= len(seg.entries) {
				continue
			}
			k := seg.entries[idx[i]].key
			if best == nil || bytes.Compare(k, best) < 0 {
				best = k
			}
		}
		if best == nil {
			return out
		}
		var winner entry
		for i, seg := range segs {
			if idx[i] < len(seg.entries) && bytes.Equal(seg.entries[idx[i]].key, best) {
				winner = seg.entries[idx[i]]
				idx[i]++
			}
		}
		out = append(out, winner)
	}
}

// Snapshot is an immutable, point-in-time view: a sorted copy of the
// memtable plus references on the live segments. Scans over a snapshot
// never block writers and never observe later appends, flushes, or
// compactions. Release it when done so retired segment files can be
// deleted.
type Snapshot struct {
	mem      []entry // ascending
	segs     []*segment
	released atomic.Bool
}

// Snapshot captures the current contents.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	sn := &Snapshot{mem: sortedEntries(s.mem), segs: make([]*segment, len(s.segs))}
	copy(sn.segs, s.segs)
	for _, seg := range sn.segs {
		seg.acquire()
	}
	s.mu.Unlock()
	return sn
}

// Release drops the snapshot's segment references. Idempotent.
func (sn *Snapshot) Release() {
	if sn.released.Swap(true) {
		return
	}
	for _, seg := range sn.segs {
		seg.release()
	}
}

// Get returns the newest value for key within the snapshot.
func (sn *Snapshot) Get(key []byte) ([]byte, bool) {
	i := sort.Search(len(sn.mem), func(i int) bool {
		return bytes.Compare(sn.mem[i].key, key) >= 0
	})
	if i < len(sn.mem) && bytes.Equal(sn.mem[i].key, key) {
		return sn.mem[i].value, true
	}
	for j := len(sn.segs) - 1; j >= 0; j-- {
		if v, ok := sn.segs[j].get(key); ok {
			return v, true
		}
	}
	return nil, false
}

// Len returns the number of distinct keys visible in the snapshot.
func (sn *Snapshot) Len() int {
	n := 0
	sn.Scan(func([]byte, []byte) bool { n++; return true })
	return n
}

// Scan visits every key/value pair in ascending key order, newest value
// winning duplicates, until fn returns false. The slices passed to fn are
// only valid during the call.
func (sn *Snapshot) Scan(fn func(key, value []byte) bool) {
	// Runs, oldest to newest; the memtable is newest of all.
	runs := make([][]entry, 0, len(sn.segs)+1)
	for _, seg := range sn.segs {
		runs = append(runs, seg.entries)
	}
	runs = append(runs, sn.mem)
	idx := make([]int, len(runs))
	for {
		var best []byte
		for i, run := range runs {
			if idx[i] >= len(run) {
				continue
			}
			k := run[idx[i]].key
			if best == nil || bytes.Compare(k, best) < 0 {
				best = k
			}
		}
		if best == nil {
			return
		}
		var winner entry
		for i, run := range runs {
			if idx[i] < len(run) && bytes.Equal(run[idx[i]].key, best) {
				winner = run[idx[i]]
				idx[i]++
			}
		}
		if !fn(winner.key, winner.value) {
			return
		}
	}
}

// ScanPrefix visits pairs whose key begins with prefix, in ascending
// order.
func (sn *Snapshot) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) {
	sn.Scan(func(k, v []byte) bool {
		if bytes.HasPrefix(k, prefix) {
			return fn(k, v)
		}
		// Keys are ascending: once past the prefix range, stop.
		return bytes.Compare(k, prefix) < 0
	})
}

// setBgErr records the first background failure.
func (s *Store) setBgErr(err error) {
	s.mu.Lock()
	if s.bgErr == nil {
		s.bgErr = err
	}
	s.mu.Unlock()
}

// Err surfaces a sticky background failure (compaction write or manifest
// publish). The store keeps serving from its previous state after such a
// failure; Close also reports it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bgErr
}

// Close flushes the memtable to a segment, waits for background work, and
// closes the WAL. The store is unusable afterwards; reopening is cheap
// because a clean close leaves an empty WAL.
func (s *Store) Close() error {
	s.rot.Lock()
	defer s.rot.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	// A replica must not flush on close: doing so would mint a segment
	// and WAL generation the leader never published, diverging the two
	// directories. Its memtable is safely reconstructed from the WAL the
	// leader shipped.
	var flushErr error
	if !s.replica {
		flushErr = s.flushLocked()
	}

	s.mu.Lock()
	s.closed = true
	w := s.wal
	s.mu.Unlock()

	s.bg.Wait()
	closeErr := w.close()
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return closeErr
	}
	return s.Err()
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Registry returns the registry the store records its telemetry into.
func (s *Store) Registry() *obs.Registry { return s.opts.Registry }

// Stats describes the store's current shape.
type Stats struct {
	Segments      int   `json:"segments"`
	MemtableBytes int   `json:"memtable_bytes"`
	MemtableKeys  int   `json:"memtable_keys"`
	WALGeneration int64 `json:"wal_generation"`
}

// Stats reports the live catalog shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:      len(s.segs),
		MemtableBytes: s.memBytes,
		MemtableKeys:  len(s.mem),
		WALGeneration: int64(s.man.WALGen),
	}
}
