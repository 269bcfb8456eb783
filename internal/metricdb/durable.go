// Durable backing for the metric database: a journal that records every
// table definition, row append and truncation into internal/store's
// WAL + segment engine, and OpenDB, which rebuilds a DB from that journal
// after a restart or crash and keeps journaling its later mutations.
//
// Key layout inside the store (ascending scan order is load order):
//
//	r\x00<table>\x00<seq: uint64 BE>  -> JSON-encoded Row
//	s\x00<table>                      -> JSON-encoded schema
//	t\x00<table>                      -> JSON-encoded truncation marker
//
// Row keys embed a per-table big-endian sequence number, so the store's
// sorted scan yields rows in exactly the order they were inserted and a
// reconstructed table is byte-identical (WriteJSON) to the original.
// The truncation marker re-uses the store's newest-value-wins semantics:
// each TruncateHead re-appends the same marker key with a higher
// below_seq, and recovery drops journaled rows beneath it (their bytes
// are reclaimed when segment compaction merges them away).
package metricdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"flare/internal/obs"
	"flare/internal/retry"
	"flare/internal/store"
)

const (
	rowKeyPrefix    = "r\x00"
	schemaKeyPrefix = "s\x00"
	truncKeyPrefix  = "t\x00"
)

// rowKey builds the store key for the seq'th row of a table.
func rowKey(table string, seq uint64) []byte {
	k := make([]byte, 0, len(rowKeyPrefix)+len(table)+1+8)
	k = append(k, rowKeyPrefix...)
	k = append(k, table...)
	k = append(k, 0)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	return append(k, s[:]...)
}

// parseRowKey splits a row key into table name and sequence number.
func parseRowKey(k []byte) (table string, seq uint64, ok bool) {
	if !bytes.HasPrefix(k, []byte(rowKeyPrefix)) || len(k) < len(rowKeyPrefix)+1+8 {
		return "", 0, false
	}
	body := k[len(rowKeyPrefix):]
	name := body[:len(body)-9]
	if body[len(name)] != 0 {
		return "", 0, false
	}
	return string(name), binary.BigEndian.Uint64(body[len(name)+1:]), true
}

// schemaRecord is the journaled form of a table definition.
type schemaRecord struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
}

// truncRecord is the journaled form of a retention truncation: rows of
// the table with seq < BelowSeq are retired.
type truncRecord struct {
	BelowSeq uint64 `json:"below_seq"`
}

// journal records metricdb mutations into an embedded store. Every
// InsertMany is one durable WAL commit of its rows (group-committed with
// concurrent writers) — the profiler's samples stream to disk as they
// are recorded instead of relying on an end-of-run dump. Transient
// append failures (an injected or real blip on the disk path) are
// retried with capped exponential backoff before the error reaches the
// caller, so a brief store hiccup does not abort a multi-minute
// profiling run.
type journal struct {
	st *store.Store

	// retry is the append's retry policy, bound once in OpenDB:
	// defaultJournalRetry, whose bounds suit the embedded engine's
	// latencies. It is the only retry between a caller and the store.
	retry retry.Bound

	mu      sync.Mutex
	nextSeq map[string]uint64
}

// defaultJournalRetry tunes the retry layer for the local journal path:
// a handful of quick attempts — either the disk blip clears in tens of
// milliseconds or the store is down and the caller should know. Its
// counters land in reg, the store's registry.
func defaultJournalRetry(reg *obs.Registry) retry.Policy {
	return retry.Policy{
		MaxAttempts: 4,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Name:        "metricdb.journal",
		Registry:    reg,
	}
}

// append journals recs as one durable store batch through the retry
// policy. A retry re-appends the whole batch: its keys and values are
// unchanged, so under last-write-wins a batch that was already durable
// stays as it was.
func (j *journal) append(recs ...store.KV) error {
	return j.retry.Do(context.Background(), func() error {
		return j.st.AppendBatch(recs)
	})
}

// createTable journals a schema record.
func (j *journal) createTable(name string, columns []Column) error {
	val, err := json.Marshal(schemaRecord{Name: name, Columns: columns})
	if err != nil {
		return err
	}
	key := append([]byte(schemaKeyPrefix), name...)
	return j.append(store.KV{Key: key, Value: val})
}

// truncate journals a retention marker retiring rows below belowSeq.
// Appending the same key again shadows any earlier marker, so the
// newest (highest) below_seq always wins on recovery.
func (j *journal) truncate(table string, belowSeq uint64) error {
	val, err := json.Marshal(truncRecord{BelowSeq: belowSeq})
	if err != nil {
		return err
	}
	key := append([]byte(truncKeyPrefix), table...)
	return j.append(store.KV{Key: key, Value: val})
}

// insert journals rows, in order, under the table's next sequence
// numbers as one store batch. Calls for one table arrive in insertion
// order (Table.InsertMany holds the table's lock across the call), so
// the journal replays to an identical table.
func (j *journal) insert(table string, rows []Row) error {
	recs := make([]store.KV, len(rows))
	for i, r := range rows {
		val, err := json.Marshal(r)
		if err != nil {
			return err
		}
		recs[i].Value = val
	}
	j.mu.Lock()
	seq := j.nextSeq[table]
	j.nextSeq[table] = seq + uint64(len(rows))
	j.mu.Unlock()
	for i := range recs {
		recs[i].Key = rowKey(table, seq+uint64(i))
	}
	return j.append(recs...)
}

// OpenDB reconstructs a database from the journal in st and keeps
// journaling into st, so further mutations stay durable. Opening an empty store
// yields an empty durable DB. The recovered DB serves exactly the rows
// that were durably journaled before the last shutdown or crash.
func OpenDB(st *store.Store) (*DB, error) {
	type seqRow struct {
		seq uint64
		row Row
	}
	schemas := make(map[string]schemaRecord)
	rowsByTable := make(map[string][]seqRow)
	truncBelow := make(map[string]uint64)
	nextSeq := make(map[string]uint64)
	var names []string // schema order: ascending table name, per scan

	var scanErr error
	if err := st.Scan(func(k, v []byte) bool {
		switch {
		case bytes.HasPrefix(k, []byte(schemaKeyPrefix)):
			var rec schemaRecord
			if err := json.Unmarshal(v, &rec); err != nil {
				scanErr = fmt.Errorf("metricdb: decoding schema %q: %w", k, err)
				return false
			}
			schemas[rec.Name] = rec
			names = append(names, rec.Name)
		case bytes.HasPrefix(k, []byte(rowKeyPrefix)):
			table, seq, ok := parseRowKey(k)
			if !ok {
				scanErr = fmt.Errorf("metricdb: malformed row key %q", k)
				return false
			}
			var r Row
			if err := json.Unmarshal(v, &r); err != nil {
				scanErr = fmt.Errorf("metricdb: decoding row %q: %w", k, err)
				return false
			}
			// Scan order is seq order within a table.
			rowsByTable[table] = append(rowsByTable[table], seqRow{seq: seq, row: r})
			if seq >= nextSeq[table] {
				nextSeq[table] = seq + 1
			}
		case bytes.HasPrefix(k, []byte(truncKeyPrefix)):
			var rec truncRecord
			if err := json.Unmarshal(v, &rec); err != nil {
				scanErr = fmt.Errorf("metricdb: decoding truncation marker %q: %w", k, err)
				return false
			}
			truncBelow[string(k[len(truncKeyPrefix):])] = rec.BelowSeq
		default:
			scanErr = fmt.Errorf("metricdb: unknown journal key %q", k)
			return false
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("metricdb: reading journal: %w", err)
	}
	if scanErr != nil {
		return nil, scanErr
	}

	// Build in-memory first (no journal attached) — the store already
	// holds these records; replaying them must not re-journal. Rows
	// beneath a table's truncation marker were retired by TruncateHead
	// and are skipped (compaction reclaims their bytes eventually).
	db := NewDB()
	for _, name := range names {
		rec := schemas[name]
		t, err := db.CreateTable(rec.Name, rec.Columns)
		if err != nil {
			return nil, fmt.Errorf("metricdb: rebuilding table %s: %w", rec.Name, err)
		}
		below := truncBelow[rec.Name]
		t.firstSeq = below
		for i, sr := range rowsByTable[rec.Name] {
			if sr.seq < below {
				continue
			}
			if err := t.Insert(sr.row); err != nil {
				return nil, fmt.Errorf("metricdb: rebuilding %s row %d: %w", rec.Name, i, err)
			}
		}
		delete(rowsByTable, rec.Name)
	}
	for table := range rowsByTable {
		return nil, fmt.Errorf("metricdb: journal has rows for unknown table %s", table)
	}

	// Now attach the journal, seeded past the recovered sequence numbers.
	j := &journal{st: st, retry: defaultJournalRetry(st.Registry()).Bind(), nextSeq: nextSeq}
	db.journal = j
	for _, t := range db.tables {
		t.journal = j
	}
	return db, nil
}
