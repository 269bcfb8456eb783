package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flare/internal/obs"
)

// testOptions gives each test store its own registry, so tests that read
// flare_store_* counters see only their own store.
func testOptions() Options {
	o := DefaultOptions()
	o.Registry = obs.NewRegistry()
	return o
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAppend(t *testing.T, s *Store, key, value string) {
	t.Helper()
	if err := s.Append([]byte(key), []byte(value)); err != nil {
		t.Fatal(err)
	}
}

// collect scans the store into parallel key/value slices.
func collect(t *testing.T, s *Store) (keys, vals []string) {
	t.Helper()
	if err := s.Scan(func(k, v []byte) bool {
		keys = append(keys, string(k))
		vals = append(vals, string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// get reads the newest value of key through Scan, the store's one read
// path.
func get(t *testing.T, s *Store, key string) (val string, ok bool) {
	t.Helper()
	if err := s.Scan(func(k, v []byte) bool {
		if string(k) == key {
			val, ok = string(v), true
		}
		return string(k) < key
	}); err != nil {
		t.Fatal(err)
	}
	return val, ok
}

// count returns the number of distinct keys a Scan visits.
func count(t *testing.T, s *Store) int {
	t.Helper()
	keys, _ := collect(t, s)
	return len(keys)
}

func TestAppendGetScan(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()

	mustAppend(t, s, "b", "2")
	mustAppend(t, s, "a", "1")
	mustAppend(t, s, "c", "3")
	mustAppend(t, s, "a", "1b") // overwrite: last write wins

	if v, ok := get(t, s, "a"); !ok || v != "1b" {
		t.Errorf("get(a) = %q,%v, want 1b,true", v, ok)
	}
	if _, ok := get(t, s, "zz"); ok {
		t.Error("get(zz) found a value")
	}
	keys, vals := collect(t, s)
	if fmt.Sprint(keys) != "[a b c]" || fmt.Sprint(vals) != "[1b 2 3]" {
		t.Errorf("Scan = %v/%v, want [a b c]/[1b 2 3]", keys, vals)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close()
	if err := s.Append(nil, []byte("v")); err == nil {
		t.Error("empty key did not error")
	}
}

func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	for i := 0; i < 100; i++ {
		mustAppend(t, s, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Segments; got != 1 {
		t.Fatalf("segments after flush = %d, want 1", got)
	}
	mustAppend(t, s, "k999", "tail") // lands in the post-flush WAL
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, testOptions())
	defer s2.Close()
	if n := count(t, s2); n != 101 {
		t.Fatalf("reopened store has %d keys, want 101", n)
	}
	if v, ok := get(t, s2, "k050"); !ok || v != "v50" {
		t.Errorf("get(k050) = %q,%v, want v50,true", v, ok)
	}
	if v, ok := get(t, s2, "k999"); !ok || v != "tail" {
		t.Errorf("get(k999) = %q,%v, want tail,true", v, ok)
	}
}

func TestOverwriteAcrossFlushes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	mustAppend(t, s, "k", "old")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k", "mid")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k", "new") // memtable beats both segments
	if v, ok := get(t, s, "k"); !ok || v != "new" {
		t.Fatalf("get(k) = %q, want new", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, testOptions())
	defer s2.Close()
	if v, ok := get(t, s2, "k"); !ok || v != "new" {
		t.Fatalf("reopened get(k) = %q, want new", v)
	}
}

func TestAutoFlushAtThreshold(t *testing.T) {
	opts := testOptions()
	opts.FlushBytes = 256
	s := openTest(t, t.TempDir(), opts)
	defer s.Close()
	for i := 0; i < 64; i++ {
		mustAppend(t, s, fmt.Sprintf("key-%04d", i), "0123456789abcdef")
	}
	if got := s.Stats().Segments; got == 0 {
		t.Error("no segment produced despite exceeding FlushBytes")
	}
	if n := count(t, s); n != 64 {
		t.Errorf("visible keys = %d, want 64", n)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.CompactAtSegments = 3
	s := openTest(t, dir, opts)

	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			mustAppend(t, s, fmt.Sprintf("r%d-k%02d", round, i), "v")
		}
		mustAppend(t, s, "shared", fmt.Sprintf("round%d", round))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // waits for background merges
		t.Fatal(err)
	}

	s2 := openTest(t, dir, opts)
	defer s2.Close()
	if got := s2.Stats().Segments; got >= 5 {
		t.Errorf("segments after compaction = %d, want < 5", got)
	}
	if n := count(t, s2); n != 101 {
		t.Errorf("keys after compaction = %d, want 101", n)
	}
	if v, ok := get(t, s2, "shared"); !ok || v != "round4" {
		t.Errorf("get(shared) = %q, want round4 (newest wins)", v)
	}

	// Compaction must not leak retired files.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != s2.Stats().Segments {
		t.Errorf("%d segment files on disk, manifest has %d", segFiles, s2.Stats().Segments)
	}
}

// TestCrashRecoveryTornTail simulates a crash mid-append: the WAL tail is
// truncated at every possible byte boundary of the final frame. Reopen
// must recover every record before the tear, error-free, with nothing
// past it.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	for i := 0; i < 10; i++ {
		mustAppend(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	// Simulated kill: abandon the store without Close (the WAL file holds
	// everything; Close would flush it into a segment).
	walFile := walPath(dir, 0)
	full, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := decodeFrames(full)
	if len(recs) != 10 || valid != len(full) {
		t.Fatalf("setup: wal has %d records, valid=%d/%d", len(recs), valid, len(full))
	}
	lastStart := 0
	for i := 0; i < 9; i++ {
		payloadLen := int(uint32(full[lastStart]) | uint32(full[lastStart+1])<<8 |
			uint32(full[lastStart+2])<<16 | uint32(full[lastStart+3])<<24)
		lastStart += frameHeaderSize + payloadLen
	}

	for cut := lastStart + 1; cut < len(full); cut++ {
		crash := t.TempDir()
		if err := os.WriteFile(walPath(crash, 0), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(crash, testOptions())
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		keys, _ := collect(t, rs)
		if len(keys) != 9 {
			t.Fatalf("cut=%d: recovered %d records, want 9 (%v)", cut, len(keys), keys)
		}
		for i, k := range keys {
			if k != fmt.Sprintf("k%02d", i) {
				t.Fatalf("cut=%d: key %d = %q", cut, i, k)
			}
		}
		// The torn tail must be gone from disk after recovery.
		buf, err := os.ReadFile(walPath(crash, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != lastStart {
			t.Fatalf("cut=%d: wal not truncated to last complete frame: %d != %d",
				cut, len(buf), lastStart)
		}
		rs.Close()
	}
}

// TestCrashRecoveryBitFlip corrupts one byte inside a middle frame: the
// records before it recover, everything from the flip on is discarded.
func TestCrashRecoveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	for i := 0; i < 10; i++ {
		mustAppend(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	walFile := walPath(dir, 0)
	full, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(full) / 10

	for _, frame := range []int{0, 4, 9} {
		crash := t.TempDir()
		cp := append([]byte(nil), full...)
		cp[frame*frameLen+frameHeaderSize+1] ^= 0x40 // flip a payload bit
		if err := os.WriteFile(walPath(crash, 0), cp, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(crash, testOptions())
		if err != nil {
			t.Fatalf("frame=%d: reopen failed: %v", frame, err)
		}
		keys, _ := collect(t, rs)
		if len(keys) != frame {
			t.Fatalf("frame=%d: recovered %d records, want %d", frame, len(keys), frame)
		}
		for _, k := range keys {
			var n int
			fmt.Sscanf(k, "k%02d", &n)
			if n >= frame {
				t.Fatalf("frame=%d: recovered data past the corruption: %q", frame, k)
			}
		}
		rs.Close()
	}
}

// TestCrashBetweenSegmentAndManifest simulates dying after a segment file
// lands but before the manifest names it: the file is an orphan, the old
// WAL still holds every record, and reopen recovers all of them.
func TestCrashBetweenSegmentAndManifest(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	mustAppend(t, s, "a", "1")
	mustAppend(t, s, "b", "2")

	// Hand-write an orphan segment, as if flush crashed pre-publish.
	if err := writeSegment(dir, 7, []record{{key: []byte("a"), value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, testOptions())
	defer s2.Close()
	if _, err := os.Stat(segmentPath(dir, 7)); !os.IsNotExist(err) {
		t.Error("orphan segment not removed on open")
	}
	if n := count(t, s2); n != 2 {
		t.Errorf("recovered %d keys, want 2", n)
	}
}

// TestConcurrentAppendAndSnapshot runs appenders (forcing flushes and
// compactions) beside concurrent Scans; every Scan must be internally
// consistent (sorted, no duplicate keys) and never fail on a segment a
// compaction retired. Meant for -race.
func TestConcurrentAppendAndSnapshot(t *testing.T) {
	opts := testOptions()
	opts.FlushBytes = 2048 // force flushes mid-run
	opts.CompactAtSegments = 3
	s := openTest(t, t.TempDir(), opts)

	const writers, per = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("g%d-%04d", g, i)
				if err := s.Append([]byte(key), bytes.Repeat([]byte("x"), 16)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var prev []byte
				if err := s.Scan(func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("scan out of order: %q then %q", prev, k)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				}); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), testOptions())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("k"), []byte("v")); err == nil {
		t.Error("append after close did not error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close errored: %v", err)
	}
}

func TestStatsAndDir(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	defer s.Close()
	if s.Dir() != dir {
		t.Errorf("Dir = %q, want %q", s.Dir(), dir)
	}
	mustAppend(t, s, "k", "v")
	st := s.Stats()
	if st.MemtableKeys != 1 || st.MemtableBytes == 0 || st.Segments != 0 {
		t.Errorf("Stats = %+v", st)
	}
}

// flipSegmentByte corrupts one payload byte of live segment id in dir.
func flipSegmentByte(t *testing.T, dir string, id uint64) {
	t.Helper()
	path := segmentPath(dir, id)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSegmentNeverServed flips a byte in a published segment. Open
// must refuse it; and since segments stay on disk, a corruption that
// lands after Open must fail Scan before it hands out a single pair.
func TestCorruptSegmentNeverServed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	mustAppend(t, s, "a", "1")
	mustAppend(t, s, "b", "2")
	if err := s.Close(); err != nil { // flushes segment 0
		t.Fatal(err)
	}

	t.Run("before open", func(t *testing.T) {
		cp := t.TempDir()
		for name, data := range storeFiles(t, dir) {
			if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		flipSegmentByte(t, cp, 0)
		s, err := Open(cp, testOptions())
		if err == nil {
			s.Close()
			t.Fatal("Open served a corrupt segment")
		}
		if !strings.Contains(err.Error(), "corrupt frame") {
			t.Errorf("Open = %v, want a corrupt-frame error", err)
		}
	})

	t.Run("after open", func(t *testing.T) {
		s := openTest(t, dir, testOptions())
		defer s.Close()
		mustAppend(t, s, "c", "3") // memtable pairs must not leak out either
		flipSegmentByte(t, dir, 0)
		visited := 0
		err := s.Scan(func(k, v []byte) bool { visited++; return true })
		if err == nil || !strings.Contains(err.Error(), "corrupt frame") {
			t.Errorf("Scan over a corrupt segment = %v, want a corrupt-frame error", err)
		}
		if visited != 0 {
			t.Errorf("Scan handed out %d pairs before failing", visited)
		}
	})
}
