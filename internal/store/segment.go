package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// segMagic is the segment file header. Bumping the trailing digits
// versions the on-disk format.
var segMagic = []byte("FLSEG001")

func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.seg", id))
}

// writeSegment persists sorted records as segment id under dir, fsyncing
// the file and the directory before the atomic rename publishes it.
func writeSegment(dir string, id uint64, recs []record) error {
	path := segmentPath(dir, id)
	tmp := path + ".tmp"
	buf := make([]byte, 0, len(segMagic)+segmentSize(recs))
	buf = append(buf, segMagic...)
	for _, r := range recs {
		buf = appendFrame(buf, r.key, r.value)
	}
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publishing segment: %w", err)
	}
	return syncDir(dir)
}

// segmentSize is the framed byte size of a run of records.
func segmentSize(recs []record) int {
	n := 0
	for _, r := range recs {
		n += frameHeaderSize + 2 + len(r.key) + len(r.value) // ~2 varint bytes
	}
	return n
}

// readSegment reads segment id from disk and checks it whole: magic,
// every frame's CRC, and strictly ascending keys. Segments stay on disk;
// the store reads one only when it needs its records (validation on
// Open, a Scan, a compaction's inputs). The records alias the file
// buffer, which lives as long as they do.
func readSegment(dir string, id uint64) ([]record, error) {
	path := segmentPath(dir, id)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	if !bytes.HasPrefix(buf, segMagic) {
		return nil, fmt.Errorf("store: segment %s: bad magic", path)
	}
	body := buf[len(segMagic):]
	recs, valid := decodeFrames(body)
	if valid != len(body) {
		return nil, fmt.Errorf("store: segment %s: corrupt frame at offset %d", path, len(segMagic)+valid)
	}
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].key, recs[i].key) >= 0 {
			return nil, fmt.Errorf("store: segment %s: keys out of order at record %d", path, i)
		}
	}
	return recs, nil
}

// readRuns reads the named segments (oldest first) as sorted runs.
func readRuns(dir string, ids []uint64) ([][]record, error) {
	runs := make([][]record, 0, len(ids)+1)
	for _, id := range ids {
		recs, err := readSegment(dir, id)
		if err != nil {
			return nil, err
		}
		runs = append(runs, recs)
	}
	return runs, nil
}

// mergeRuns k-way merges sorted runs (oldest first) into fn in ascending
// key order, the newest run winning duplicate keys, until fn returns
// false. It is the one merge behind both Scan and compaction.
func mergeRuns(runs [][]record, fn func(key, value []byte) bool) {
	idx := make([]int, len(runs))
	for {
		// Smallest key across runs; among ties the newest (highest index)
		// run supplies the value and every tied run advances.
		var best []byte
		for i, run := range runs {
			if idx[i] < len(run) && (best == nil || bytes.Compare(run[idx[i]].key, best) < 0) {
				best = run[idx[i]].key
			}
		}
		if best == nil {
			return
		}
		var winner record
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

// writeFileSync writes buf to path and fsyncs it.
func writeFileSync(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	return nil
}
