// Package store is FLARE's embedded storage engine: a dependency-free,
// crash-safe, append-heavy key/value store backing the metric database.
// The paper's Profiler records statistics continuously over a multi-day
// window (Sec 4.2); that history must survive process restarts, so the
// engine is built on the classic durable-log design:
//
//   - every append is framed (length + CRC32C) into a write-ahead log;
//     concurrent appenders share one fsync via leader-based group commit,
//   - an in-memory memtable absorbs writes and flushes to immutable,
//     sorted, length-prefixed segment files at a size threshold,
//   - a manifest names the live segments and the current WAL generation,
//     rewritten atomically (temp file + rename) on every flush/compaction,
//   - segments stay on disk: Open checks each live one, and only a Scan
//     (under the catalog lock) or a compaction reads one back, and
//   - a background compactor merges segments to bound read fan-in,
//     deleting its inputs once the new manifest is durable.
//
// Recovery replays the current WAL generation into the memtable. A torn
// tail — a short frame or a CRC mismatch from a crash mid-append — is
// truncated to the last complete record instead of failing open; records
// before the tear are never lost, bytes after it are never surfaced.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// Frame layout, shared by the WAL and segment files:
//
//	| payload len: uint32 LE | crc32c(payload): uint32 LE | payload |
//
// payload = uvarint(len(key)) ++ key ++ value. The CRC covers only the
// payload; a frame whose stored length runs past the buffer is torn, a
// frame whose CRC or key header does not check out is corrupt. Either way
// decoding stops — nothing past the first bad frame is ever returned.
const frameHeaderSize = 8

// maxFrameSize bounds a single record (key + value + header). It guards
// recovery and the fuzz target against pathological lengths in corrupt
// input, and callers against runaway allocations.
const maxFrameSize = 1 << 26 // 64 MiB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded key/value pair. Both slices may alias the buffer
// they were decoded from; callers that retain them must copy.
type record struct {
	key   []byte
	value []byte
}

// appendFrame appends the framed encoding of one record to dst.
func appendFrame(dst []byte, key, value []byte) []byte {
	var kl [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(kl[:], uint64(len(key)))
	payloadLen := n + len(key) + len(value)

	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, kl[:n]...)
	dst = append(dst, key...)
	dst = append(dst, value...)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeFrames parses complete frames from buf, returning the decoded
// records and the byte length of the valid prefix. Parsing stops at the
// first torn or corrupt frame; buf[valid:] is garbage to be truncated.
// Record slices alias buf.
func decodeFrames(buf []byte) (recs []record, valid int) {
	for valid < len(buf) {
		rest := buf[valid:]
		if len(rest) < frameHeaderSize {
			return recs, valid // torn header
		}
		payloadLen := int(binary.LittleEndian.Uint32(rest))
		if payloadLen < 1 || payloadLen > maxFrameSize {
			return recs, valid // corrupt length
		}
		if len(rest) < frameHeaderSize+payloadLen {
			return recs, valid // torn payload
		}
		payload := rest[frameHeaderSize : frameHeaderSize+payloadLen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, valid // corrupt payload
		}
		keyLen, n := binary.Uvarint(payload)
		if n <= 0 || keyLen > uint64(len(payload)-n) {
			return recs, valid // corrupt key header
		}
		recs = append(recs, record{
			key:   payload[n : n+int(keyLen)],
			value: payload[n+int(keyLen):],
		})
		valid += frameHeaderSize + payloadLen
	}
	return recs, valid
}

// wal is an append-only frame log with leader-based group commit: each
// appender queues its frame and waits for the batch containing it to be
// durable; the first waiter becomes the batch leader, writes every queued
// frame with one write + one fsync, and wakes the rest. Under concurrent
// load many logical appends amortise a single fsync.
type wal struct {
	f          *os.File
	syncWrites bool
	met        *storeMetrics
	gen        uint64 // WAL generation this file belongs to
	// onCommit, when set, observes every durably committed batch (the
	// exact bytes written, in file order) together with the generation
	// and the file offset the batch landed at. Batch leaders call it
	// outside w.mu but strictly serialised (one leader at a time), so
	// observers see batches in file order. Replication ships these.
	onCommit func(gen, pos uint64, batch []byte)

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []byte // frames queued for the next batch
	spare     []byte // recycled batch buffer
	sealed    uint64 // batches handed to a leader
	committed uint64 // batches durably on disk
	size      uint64 // bytes durably written to the file
	flushing  bool
	err       error // sticky: a failed write poisons the log
}

func newWAL(f *os.File, gen, size uint64, syncWrites bool, met *storeMetrics,
	onCommit func(gen, pos uint64, batch []byte)) *wal {
	w := &wal{f: f, gen: gen, size: size, syncWrites: syncWrites, met: met, onCommit: onCommit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// append queues one encoded frame and blocks until its batch is durable
// (written, and fsynced when syncWrites is on).
func (w *wal) append(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.pending = append(w.pending, frame...)
	my := w.sealed + 1 // the batch this frame will ride in
	for w.err == nil && w.committed < my {
		if !w.flushing {
			// Become the leader for batch `my`: seal everything queued so
			// far (all of it belongs to this batch) and commit it with one
			// write + fsync while the lock is released.
			w.flushing = true
			w.sealed++
			batch := w.pending
			w.pending = w.spare[:0]
			pos := w.size
			w.mu.Unlock()
			werr := w.commit(batch)
			if werr == nil && w.onCommit != nil {
				// The batch buffer is recycled after this call returns;
				// observers that retain the bytes must copy them.
				w.onCommit(w.gen, pos, batch)
			}
			w.mu.Lock()
			w.spare = batch
			w.flushing = false
			w.committed = w.sealed
			if werr != nil && w.err == nil {
				w.err = werr
			} else if werr == nil {
				w.size = pos + uint64(len(batch))
			}
			w.cond.Broadcast()
			continue
		}
		w.cond.Wait()
	}
	return w.err
}

// applyReplicated writes pre-framed batch bytes at the stated leader
// position — the replica-side mirror of a group commit. A batch wholly
// behind the durable size is a re-delivery and is skipped; a batch
// starting past it means events were lost (the caller must resync); a
// batch straddling it (the replica crashed mid-write and truncated a
// torn tail) has only its missing suffix written, since the durable
// prefix already holds identical leader bytes.
func (w *wal) applyReplicated(pos uint64, batch []byte) (applied bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return false, w.err
	}
	end := pos + uint64(len(batch))
	if end <= w.size {
		return false, nil
	}
	if pos > w.size {
		return false, errReplicaGap
	}
	if err := w.commit(batch[w.size-pos:]); err != nil {
		w.err = err
		return false, err
	}
	w.size = end
	return true, nil
}

// commit writes one sealed batch to the file and syncs it.
func (w *wal) commit(batch []byte) error {
	if _, err := w.f.Write(batch); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	if w.syncWrites {
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal fsync: %w", err)
		}
		w.met.walFsync.Observe(time.Since(start).Seconds())
	}
	w.met.walBatches.Inc()
	w.met.walBytes.Add(uint64(len(batch)))
	return nil
}

// close syncs outstanding data and closes the file. Appends after close
// fail with the sticky error.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = fmt.Errorf("store: wal closed")
	}
	w.cond.Broadcast() // release any appender still waiting on a batch
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
