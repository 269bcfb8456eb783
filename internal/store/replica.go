// Replication: the store's durable state is a deterministic function of
// the ordered stream of its durable transitions, so replicating it needs
// nothing beyond shipping that stream. A leader opened with
// Options.Replicate emits one ReplicationEvent per transition — a
// committed WAL batch, a flush publish, a compaction install — in commit
// order. A follower opened with OpenReplica applies them through
// ApplyEvent and converges to a byte-identical directory: WAL batches
// land at the same offsets, flushes cut segments at the same record
// boundary (sortedEntries is deterministic), compactions merge the same
// inputs, and manifests serialise with the same ids because flush and
// compact events carry the leader's published NextSegID.
//
// Apply is idempotent: a re-delivered batch is skipped by position, a
// re-delivered flush by generation, a re-delivered compaction by segment
// id. That makes a lazily persisted resume cursor (internal/cluster's
// REPLSEQ) safe — replaying from a stale cursor re-applies no-ops.

package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrReplica is returned by mutating operations (Append, Flush) on a
// store opened with OpenReplica.
var ErrReplica = errors.New("store: replica is read-only")

// ErrReplicaDiverged is returned by ApplyEvent when an event cannot
// follow the replica's current state — a generation or position gap that
// skipping or re-applying cannot explain. The replica's history is no
// longer a prefix of the leader's; it must resync from a snapshot
// (ExportFiles / ImportFiles).
var ErrReplicaDiverged = errors.New("store: replica diverged from leader")

// errReplicaGap marks a WAL batch arriving past the durable tail; it is
// wrapped into ErrReplicaDiverged by applyFrames.
var errReplicaGap = errors.New("store: replicated batch past wal tail")

// ReplKind enumerates the durable state transitions a leader ships.
type ReplKind uint8

const (
	// ReplFrames carries one durably committed WAL batch.
	ReplFrames ReplKind = iota + 1
	// ReplFlush announces a memtable flush: segment SegID was published
	// and the WAL rotated to generation NewGen.
	ReplFlush
	// ReplCompact announces a compaction: the oldest Inputs live
	// segments were merged into segment SegID.
	ReplCompact
)

// String names the kind for logs and span attributes.
func (k ReplKind) String() string {
	switch k {
	case ReplFrames:
		return "frames"
	case ReplFlush:
		return "flush"
	case ReplCompact:
		return "compact"
	}
	return fmt.Sprintf("replkind(%d)", uint8(k))
}

// ReplicationEvent is one durable state transition, as observed by
// Options.Replicate on a leader and applied by ApplyEvent on a replica.
// Which fields are meaningful depends on Kind.
type ReplicationEvent struct {
	Kind ReplKind

	// ReplFrames: the batch bytes (exact committed encoding, owned by
	// the event), the WAL generation they belong to, and the file offset
	// they landed at.
	Gen    uint64
	WalPos uint64
	Frames []byte

	// ReplFlush: the published segment id and the new WAL generation.
	// ReplCompact: the merged output segment id and the count of oldest
	// live segments it replaced.
	SegID  uint64
	Inputs int

	// ReplFlush only: the WAL generation the leader rotated to.
	NewGen uint64

	// ReplFlush and ReplCompact: the NextSegID the leader's manifest
	// published with this transition. Replicas adopt it verbatim so both
	// manifests serialise byte-identically even when flushes and
	// background compactions interleave id allocation on the leader.
	NextSegID uint64
}

// emit hands one event to the Replicate hook, if any. Callers hold the
// lock that orders the transition (wal leadership for frames, s.mu for
// flush/compact publishes), so observers see events in commit order.
func (s *Store) emit(ev ReplicationEvent) {
	if s.opts.Replicate != nil {
		s.opts.Replicate(ev)
	}
}

// walHook adapts the Replicate hook to the WAL's onCommit callback,
// copying the batch because the WAL recycles its buffer.
func (s *Store) walHook() func(gen, pos uint64, batch []byte) {
	if s.opts.Replicate == nil {
		return nil
	}
	return func(gen, pos uint64, batch []byte) {
		s.emit(ReplicationEvent{Kind: ReplFrames, Gen: gen, WalPos: pos,
			Frames: append([]byte(nil), batch...)})
	}
}

// OpenReplica opens dir as a read-only replica of a leader store. The
// replica serves Scan but mutates only through ApplyEvent;
// Append and Flush fail with ErrReplica, it never self-compacts, and
// Close does not flush (a flush would mint ids the leader never
// published and diverge the directories). Reopening replays the shipped
// WAL through the ordinary recovery path.
func OpenReplica(dir string, opts Options) (*Store, error) {
	opts.Replicate = nil       // replicas never re-ship
	opts.CompactAtSegments = 0 // compaction is driven by leader events
	opts.Injector = nil        // fault sites are leader-side
	s, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s.replica = true
	return s, nil
}

// ApplyEvent applies one leader transition to a replica, in stream
// order. Re-delivered events are skipped (see package comment); an event
// that cannot follow the current state returns ErrReplicaDiverged and
// the caller must resync from a snapshot.
func (s *Store) ApplyEvent(ev ReplicationEvent) error {
	if !s.replica {
		return errors.New("store: ApplyEvent on non-replica store")
	}
	switch ev.Kind {
	case ReplFrames:
		return s.applyFrames(ev)
	case ReplFlush:
		return s.applyFlush(ev)
	case ReplCompact:
		return s.applyCompact(ev)
	}
	return fmt.Errorf("store: unknown replication event kind %d", ev.Kind)
}

// applyFrames mirrors one committed WAL batch: bytes to the log at the
// leader's offset, records to the memtable. A batch from a generation
// the replica has already rotated past was subsumed by that flush.
func (s *Store) applyFrames(ev ReplicationEvent) error {
	recs, valid := decodeFrames(ev.Frames)
	if valid != len(ev.Frames) {
		return fmt.Errorf("store: corrupt replicated batch (valid %d of %d bytes): %w",
			valid, len(ev.Frames), ErrReplicaDiverged)
	}
	s.rot.RLock()
	defer s.rot.RUnlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	w := s.wal
	curGen := s.man.WALGen
	s.mu.Unlock()
	if ev.Gen != curGen {
		if ev.Gen < curGen {
			return nil // re-delivery from before a flush already applied
		}
		return fmt.Errorf("store: batch for wal gen %d but replica at %d: %w",
			ev.Gen, curGen, ErrReplicaDiverged)
	}
	applied, err := w.applyReplicated(ev.WalPos, ev.Frames)
	if errors.Is(err, errReplicaGap) {
		return fmt.Errorf("store: %v: %w", err, ErrReplicaDiverged)
	}
	if err != nil || !applied {
		return err
	}
	s.mu.Lock()
	for _, r := range recs {
		s.memInsert(r.key, r.value)
	}
	s.met.walAppends.Add(uint64(len(recs)))
	s.mu.Unlock()
	return nil
}

// applyFlush mirrors a leader flush: same segment id, same record
// boundary, same manifest. The leader's NextSegID is adopted first so
// flushAs publishes an identical manifest.
func (s *Store) applyFlush(ev ReplicationEvent) error {
	s.rot.Lock()
	defer s.rot.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if ev.NewGen <= s.man.WALGen {
		s.mu.Unlock()
		return nil // re-delivery: this rotation already happened
	}
	if ev.NewGen != s.man.WALGen+1 {
		gen := s.man.WALGen
		s.mu.Unlock()
		return fmt.Errorf("store: flush to gen %d but replica at %d: %w",
			ev.NewGen, gen, ErrReplicaDiverged)
	}
	s.nextSeg = ev.NextSegID
	s.mu.Unlock()
	return s.flushAs(ev.SegID, ev.NewGen, false)
}

// applyCompact mirrors a leader compaction by merging the replica's own
// oldest Inputs segments through compactAs. Event order guarantees those
// are byte-identical to the leader's merge inputs, and the merge is
// deterministic, so the output segment matches byte for byte.
func (s *Store) applyCompact(ev ReplicationEvent) error {
	s.rot.Lock()
	defer s.rot.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	// Published NextSegID is strictly monotonic across flush and compact
	// installs (each allocates at least one id first), so an event at or
	// below the replica's manifest is a re-delivery — even if a later
	// compaction has since consumed this one's output segment.
	if ev.NextSegID <= s.man.NextSegID {
		s.mu.Unlock()
		return nil
	}
	live := s.man.Segments
	if ev.Inputs <= 0 || ev.Inputs > len(live) {
		s.mu.Unlock()
		return fmt.Errorf("store: compaction of %d segments but replica has %d: %w",
			ev.Inputs, len(live), ErrReplicaDiverged)
	}
	s.nextSeg = ev.NextSegID
	s.mu.Unlock()
	return s.compactAs(live[:ev.Inputs], ev.SegID, false)
}

// Position reports the replica-relevant durable position: the current
// WAL generation and the number of durable bytes in it.
func (s *Store) Position() (gen, pos uint64) {
	s.rot.RLock()
	defer s.rot.RUnlock()
	s.mu.Lock()
	w := s.wal
	gen = s.man.WALGen
	s.mu.Unlock()
	w.mu.Lock()
	pos = w.size
	w.mu.Unlock()
	return gen, pos
}

// SnapshotFile is one file of a replication snapshot: a byte-exact copy
// of a store file, named relative to the store directory.
type SnapshotFile struct {
	Name string
	Data []byte
}

// ExportFiles captures a byte-exact copy of the store's durable state —
// manifest, live segments, current WAL — with both store locks held so
// no commit, flush, or compaction can interleave. mark, if non-nil, is
// invoked at the capture point, still under the locks: a replication
// shipper uses it to record the event-stream position the snapshot
// corresponds to, atomically with the capture (no event can be emitted
// while the locks are held). mark must not call back into the store.
func (s *Store) ExportFiles(mark func()) ([]SnapshotFile, error) {
	s.rot.Lock()
	defer s.rot.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if mark != nil {
		mark()
	}
	var files []SnapshotFile
	read := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: snapshot read: %w", err)
		}
		files = append(files, SnapshotFile{Name: filepath.Base(path), Data: data})
		return nil
	}
	for _, id := range s.man.Segments {
		if err := read(segmentPath(s.dir, id)); err != nil {
			return nil, err
		}
	}
	if err := read(walPath(s.dir, s.man.WALGen)); err != nil {
		return nil, err
	}
	// Manifest last, mirroring write order: data files before the file
	// that names them. A store that has never flushed has no manifest on
	// disk yet; synthesize the zero catalog with the same encoding
	// saveManifest uses so the importer's bytes match a real one.
	buf, err := os.ReadFile(manifestPath(s.dir))
	if os.IsNotExist(err) {
		if buf, err = json.Marshal(s.man); err != nil {
			return nil, fmt.Errorf("store: encoding manifest: %w", err)
		}
	} else if err != nil {
		return nil, fmt.Errorf("store: snapshot read: %w", err)
	}
	files = append(files, SnapshotFile{Name: manifestName, Data: buf})
	return files, nil
}

// ImportFiles replaces the store files in dir with a snapshot captured
// by ExportFiles. The target store must be closed. Existing store files
// (segments, WALs, manifest, temp files) are removed first; snapshot
// data files are written durably before the manifest that names them, so
// a crash mid-import leaves either the old manifest with orphan new
// files or the new manifest fully backed — both recover cleanly, and the
// importer's resume cursor is only advanced after a successful reopen.
func ImportFiles(dir string, files []SnapshotFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating dir: %w", err)
	}
	var manifest *SnapshotFile
	for i := range files {
		f := &files[i]
		if f.Name != filepath.Base(f.Name) || f.Name == "" || f.Name == "." {
			return fmt.Errorf("store: snapshot file name %q is not a bare name", f.Name)
		}
		if f.Name == manifestName {
			manifest = f
		}
	}
	if manifest == nil {
		return errors.New("store: snapshot has no manifest")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: listing dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if name == manifestName || strings.HasPrefix(name, "seg-") ||
			strings.HasPrefix(name, "wal-") || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("store: clearing %s: %w", name, err)
			}
		}
	}
	for i := range files {
		f := &files[i]
		if f.Name == manifestName {
			continue
		}
		if err := writeFileSync(filepath.Join(dir, f.Name), f.Data); err != nil {
			return fmt.Errorf("store: importing %s: %w", f.Name, err)
		}
	}
	if err := writeFileSync(filepath.Join(dir, manifestName), manifest.Data); err != nil {
		return fmt.Errorf("store: importing manifest: %w", err)
	}
	return syncDir(dir)
}
