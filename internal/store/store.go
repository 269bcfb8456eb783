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
	// file. Default 4 MiB. The size counts each entry's key and value
	// bytes plus memEntryOverhead for what holding them costs (map slot,
	// string and slice headers, allocation rounding), so the threshold
	// bounds the memtable's heap rather than its payload.
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
	// store's durability paths. Sites: "store.wal.append" (an append
	// call fails or slows down before reaching the log; a batch counts
	// once), "store.flush.segment" (segment write fails cleanly),
	// "store.flush.publish" (crash point between the segment write and
	// the manifest publish — the orphan-segment window), and
	// "store.compact.write" (background compaction fails). See
	// internal/fault.
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

// Store is an embedded, crash-safe key/value store with one read path: a
// sorted Scan. Keys are unique (last write wins) and returned in
// ascending byte order. Segments stay on disk; only the memtable is
// resident. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	met  *storeMetrics

	// inj is swappable at runtime (SetInjector) so tests and operators
	// can start an outage against an already-open store.
	inj atomic.Pointer[fault.Injector]

	// rot serialises WAL rotation with appends: every AppendBatch holds
	// it for read across (WAL append, memtable inserts), so Flush —
	// holding it for write — observes a memtable that exactly matches
	// the WAL generation it retires.
	rot sync.RWMutex

	// mu guards the mutable catalog: memtable and manifest (whose
	// Segments list names the live segments, oldest first). The manifest
	// is copy-on-write: an install replaces man.Segments, never edits it.
	mu       sync.Mutex
	wal      *wal
	mem      map[string][]byte
	memBytes int
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
// WAL generation into the memtable. Every live segment is read and
// checked (magic, CRCs, key order), then dropped from memory; a corrupt
// one fails Open. A torn WAL tail — the signature of a crash mid-append —
// is truncated to the last complete record. Orphan segment and WAL files
// not named by the manifest (crash between a file write and its manifest
// publish) are deleted.
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
		if _, err := readSegment(dir, id); err != nil {
			return nil, err
		}
	}
	if err := s.removeOrphans(); err != nil {
		return nil, err
	}
	f, size, err := s.recoverWAL()
	if err != nil {
		return nil, err
	}
	s.wal = newWAL(f, man.WALGen, size, opts.SyncWrites, met, s.walHook())
	met.segsLive.Set(float64(len(man.Segments)))
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

// memEntryOverhead is the heap a memtable entry holds beyond its key and
// value bytes: its map slot (tophash, string and slice headers, at the
// map's load factor) and the size-class rounding of the key and value
// allocations. Measured for journaled estimate rows: about 167 B of heap
// per entry for 84 B of key and value (metricdb's
// TestMemtableCountsEntryHeap).
const memEntryOverhead = 80

// memInsert stores one pair in the memtable (caller holds mu or is
// single-threaded recovery). Slices are copied; last write wins.
func (s *Store) memInsert(key, value []byte) {
	k := string(key)
	if old, ok := s.mem[k]; ok {
		s.memBytes -= len(k) + len(old) + memEntryOverhead
	}
	s.mem[k] = append([]byte(nil), value...)
	s.memBytes += len(k) + len(value) + memEntryOverhead
}

// SetInjector replaces the store's fault injector (nil disables
// injection). Safe to call while the store is serving; in-flight
// operations may still observe the previous injector.
func (s *Store) SetInjector(in *fault.Injector) { s.inj.Store(in) }

// injector returns the current fault injector (possibly nil; all
// injector methods are nil-safe).
func (s *Store) injector() *fault.Injector { return s.inj.Load() }

// KV is one record of an AppendBatch.
type KV struct {
	Key, Value []byte
}

// Append durably writes one key/value pair: a batch of one.
func (s *Store) Append(key, value []byte) error {
	return s.AppendBatch([]KV{{Key: key, Value: value}})
}

// AppendBatch durably writes recs, in order: every record is on disk (in
// the WAL) before AppendBatch returns. The batch is one frame run in one
// WAL commit — one write and one fsync, shared with concurrent appenders
// via group commit. Every record is checked before any is written, so an
// empty key or an oversized record rejects the whole batch. A repeated
// key overwrites (last write wins); an empty batch is a no-op.
func (s *Store) AppendBatch(recs []KV) error {
	if len(recs) == 0 {
		return nil
	}
	for _, r := range recs {
		if len(r.Key) == 0 {
			return errors.New("store: empty key")
		}
		if len(r.Key)+len(r.Value)+frameHeaderSize > maxFrameSize {
			return fmt.Errorf("store: record for key %q exceeds %d bytes", r.Key, maxFrameSize)
		}
	}
	if s.replica {
		return ErrReplica
	}
	// Fault site, once per call: a failed or slow disk write, surfaced
	// before any lock is held so injected latency does not serialise
	// healthy appenders.
	if err := s.injector().Err("store.wal.append"); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	var frames []byte
	for _, r := range recs {
		frames = appendFrame(frames, r.Key, r.Value)
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

	if err := w.append(frames); err != nil {
		s.rot.RUnlock()
		return err
	}
	s.met.walAppends.Add(uint64(len(recs)))

	s.mu.Lock()
	for _, r := range recs {
		s.memInsert(r.Key, r.Value)
	}
	needFlush := s.memBytes >= s.opts.FlushBytes
	s.mu.Unlock()
	s.rot.RUnlock()

	if needFlush {
		return s.Flush()
	}
	return nil
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

	if err := writeSegment(s.dir, segID, entries); err != nil {
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
		os.Remove(segmentPath(s.dir, segID))
		return err
	}
	s.man = man
	s.wal = newWAL(nf, newGen, 0, s.opts.SyncWrites, s.met, s.walHook())
	s.mem = make(map[string][]byte)
	s.memBytes = 0
	s.met.flushes.Inc()
	s.met.segsLive.Set(float64(len(man.Segments)))
	if leader {
		s.emit(ReplicationEvent{Kind: ReplFlush, SegID: segID,
			NewGen: newGen, NextSegID: man.NextSegID})
	}
	s.mu.Unlock()

	_ = oldWAL.close()
	_ = os.Remove(walPath(s.dir, oldGen))
	return nil
}

// sortedEntries copies a memtable out as ascending records.
func sortedEntries(mem map[string][]byte) []record {
	entries := make([]record, 0, len(mem))
	for k, v := range mem {
		entries = append(entries, record{key: []byte(k), value: v})
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
		len(s.man.Segments) < s.opts.CompactAtSegments {
		return
	}
	s.compacting = true
	s.bg.Add(1)
	go s.compact(s.man.Segments)
}

// compact is the leader's background compaction of the inputs, which
// stay the oldest live segments while it runs (later flushes append after
// them). On any failure the merge output is abandoned, the store keeps
// serving from the old segments, and the error is sticky via Err/Close.
func (s *Store) compact(inputs []uint64) {
	defer s.bg.Done()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
	s.mu.Lock()
	segID := s.nextSeg
	s.nextSeg++
	s.mu.Unlock()
	// Fault site: background compaction failure.
	if err := s.injector().Err("store.compact.write"); err != nil {
		s.setBgErr(fmt.Errorf("store: compaction: %w", err))
		return
	}
	if err := s.compactAs(inputs, segID, true); err != nil {
		s.setBgErr(err)
	}
}

// compactAs merges the inputs — the oldest live segments, oldest first,
// newest value winning — into segment segID, installs it in the manifest
// in their place, and deletes the input files: the core shared by a
// leader's compact and a replica's applyCompact, as flushAs is for
// flushes. The caller has allocated (leader) or adopted (replica) segID
// and s.nextSeg. The inputs are read without s.mu: compaction is the only
// code that deletes segments, and compactions never overlap (a leader
// runs one at a time, a replica applies them under s.rot). A Scan holds
// s.mu across its reads and the install takes s.mu, so no reader loses a
// file, and the files are deleted only after the new manifest is durable.
func (s *Store) compactAs(inputs []uint64, segID uint64, leader bool) error {
	runs, err := readRuns(s.dir, inputs)
	if err != nil {
		return err
	}
	var merged []record
	mergeRuns(runs, func(k, v []byte) bool {
		merged = append(merged, record{key: k, value: v})
		return true
	})
	if err := writeSegment(s.dir, segID, merged); err != nil {
		return err
	}

	s.mu.Lock()
	man := s.man
	if s.nextSeg == man.NextSegID {
		// A flush took its id after segID and published first. Take one
		// more id, so this install's NextSegID is past the flush's and a
		// replica does not skip it as a re-delivery.
		s.nextSeg++
	}
	man.NextSegID = s.nextSeg
	// Anything flushed during the merge stays, ordered after the output.
	man.Segments = append([]uint64{segID}, man.Segments[len(inputs):]...)
	if err := saveManifest(s.dir, man); err != nil {
		s.mu.Unlock()
		_ = os.Remove(segmentPath(s.dir, segID))
		return err
	}
	s.man = man
	s.met.compactions.Inc()
	s.met.segsLive.Set(float64(len(man.Segments)))
	if leader {
		s.emit(ReplicationEvent{Kind: ReplCompact, SegID: segID,
			Inputs: len(inputs), NextSegID: man.NextSegID})
	}
	s.mu.Unlock()

	// Removal errors are ignored: a leftover input is an orphan the next
	// Open collects.
	for _, id := range inputs {
		_ = os.Remove(segmentPath(s.dir, id))
	}
	return nil
}

// Scan visits every key/value pair in ascending key order, newest value
// winning duplicates, until fn returns false. It holds s.mu throughout,
// reading the live segment files and the memtable, so appends wait until
// it returns and fn must not call back into the store. The slices passed
// to fn are only valid during the call. A segment that fails its checks
// fails the Scan before fn sees any pair.
func (s *Store) Scan(fn func(key, value []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs, err := readRuns(s.dir, s.man.Segments)
	if err != nil {
		return err
	}
	mergeRuns(append(runs, sortedEntries(s.mem)), fn)
	return nil
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
	// Let a running compaction install before the store is marked
	// closed. Holding rot keeps any new one from starting: only a flush
	// starts one.
	s.bg.Wait()

	s.mu.Lock()
	s.closed = true
	w := s.wal
	s.mu.Unlock()

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
		Segments:      len(s.man.Segments),
		MemtableBytes: s.memBytes,
		MemtableKeys:  len(s.mem),
		WALGeneration: int64(s.man.WALGen),
	}
}
