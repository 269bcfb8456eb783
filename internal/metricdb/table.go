// Package metricdb implements the Profiler's storage backend: a small
// in-memory relational store with typed columns, predicate queries, and
// JSON persistence, standing in for the paper's "relational database"
// that records collected statistics along with the commands and
// configurations of running jobs (Sec 4.2).
package metricdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// ColType is the type of a table column.
type ColType int

// Column types.
const (
	TypeFloat ColType = iota + 1
	TypeInt
	TypeString
)

// String names the column type.
func (t ColType) String() string {
	switch t {
	case TypeFloat:
		return "float"
	case TypeInt:
		return "int"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one table column.
type Column struct {
	Name string  `json:"name"`
	Type ColType `json:"type"`
}

// Value is a dynamically typed cell. Only the field matching the
// column's type may be set: a table stores that field alone, and
// InsertMany rejects a cell that sets another.
type Value struct {
	F float64 `json:"f,omitempty"`
	I int64   `json:"i,omitempty"`
	S string  `json:"s,omitempty"`
}

// Float wraps a float value.
func Float(f float64) Value { return Value{F: f} }

// Int wraps an int value.
func Int(i int64) Value { return Value{I: i} }

// String wraps a string value.
func String(s string) Value { return Value{S: s} }

// Row is one record, with cells parallel to the table's columns.
type Row []Value

// Table is a typed, append-only relation. It is safe for concurrent use:
// inserts take the write lock, queries the read lock.
//
// Cells are stored by column type: all float cells in one []float64, all
// int cells in one []int64 and all string cells in one []string, each
// row-major over the columns of its type. A row of a float, an int and a
// string column costs 32 bytes and no allocation of its own; Rows are
// built from the columns only when a query or dump asks for them.
type Table struct {
	mu      sync.RWMutex
	name    string
	columns []Column
	colIdx  map[string]int
	// slot[c] is column c's position among the table's columns of its
	// type; width[ty] is how many columns have type ty.
	slot   []int
	width  [TypeString + 1]int
	rows   int
	floats []float64
	ints   []int64
	strs   []string

	journal *journal // nil for in-memory tables
	// firstSeq is the journal sequence number of row 0; it advances as
	// TruncateHead retires the oldest rows. Always 0 without a journal.
	firstSeq uint64
}

// NewTable creates a table with the given schema. Column names must be
// unique and non-empty.
func NewTable(name string, columns []Column) (*Table, error) {
	if name == "" {
		return nil, errors.New("metricdb: empty table name")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("metricdb: table %s has no columns", name)
	}
	t := &Table{
		name:    name,
		columns: make([]Column, len(columns)),
		colIdx:  make(map[string]int, len(columns)),
		slot:    make([]int, len(columns)),
	}
	copy(t.columns, columns)
	for i, c := range t.columns {
		if c.Name == "" {
			return nil, fmt.Errorf("metricdb: table %s column %d has empty name", name, i)
		}
		if c.Type < TypeFloat || c.Type > TypeString {
			return nil, fmt.Errorf("metricdb: table %s column %s has invalid type", name, c.Name)
		}
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("metricdb: table %s has duplicate column %s", name, c.Name)
		}
		t.colIdx[c.Name] = i
		t.slot[i] = t.width[c.Type]
		t.width[c.Type]++
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the schema.
func (t *Table) Columns() []Column {
	out := make([]Column, len(t.columns))
	copy(out, t.columns)
	return out
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// rowInto writes row i's cells into r, one per column; the caller holds
// t.mu.
func (t *Table) rowInto(r Row, i int) {
	for c, col := range t.columns {
		k := i*t.width[col.Type] + t.slot[c]
		switch col.Type {
		case TypeFloat:
			r[c] = Value{F: t.floats[k]}
		case TypeInt:
			r[c] = Value{I: t.ints[k]}
		default:
			r[c] = Value{S: t.strs[k]}
		}
	}
}

// holds reports whether v sets no field but the one a column of type ct
// stores; any other field would be lost.
func (ct ColType) holds(v Value) bool {
	switch ct {
	case TypeFloat:
		return v.I == 0 && v.S == ""
	case TypeInt:
		return v.F == 0 && v.S == ""
	default:
		return v.F == 0 && v.I == 0
	}
}

// Insert appends a row: an InsertMany of one.
func (t *Table) Insert(r Row) error { return t.InsertMany([]Row{r}) }

// InsertMany appends rows, in order. Every row must have exactly one
// cell per column, and each cell may set only the field its column's
// type holds; one row that does not rejects them all. With a journal
// attached the rows are journaled durably first, as one store batch; a
// journal failure leaves the in-memory table unchanged. The table copies
// the cells and keeps no reference to rows.
func (t *Table) InsertMany(rows []Row) error {
	for i, r := range rows {
		if len(r) != len(t.columns) {
			return fmt.Errorf("metricdb: table %s insert with %d cells, want %d", t.name, len(r), len(t.columns))
		}
		for c, v := range r {
			if col := t.columns[c]; !col.Type.holds(v) {
				return fmt.Errorf("metricdb: table %s row %d: %s column %s cannot hold %+v", t.name, i, col.Type, col.Name, v)
			}
		}
	}
	if len(rows) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Journal under the lock so the journal's sequence order matches the
	// in-memory row order exactly — reconstruction is then byte-identical.
	if t.journal != nil {
		if err := t.journal.insert(t.name, rows); err != nil {
			return fmt.Errorf("metricdb: journaling %s insert: %w", t.name, err)
		}
	}
	t.floats = slices.Grow(t.floats, len(rows)*t.width[TypeFloat])
	t.ints = slices.Grow(t.ints, len(rows)*t.width[TypeInt])
	t.strs = slices.Grow(t.strs, len(rows)*t.width[TypeString])
	for _, r := range rows {
		for c, col := range t.columns {
			switch col.Type {
			case TypeFloat:
				t.floats = append(t.floats, r[c].F)
			case TypeInt:
				t.ints = append(t.ints, r[c].I)
			default:
				t.strs = append(t.strs, r[c].S)
			}
		}
	}
	t.rows += len(rows)
	return nil
}

// TruncateHead retires the oldest rows so at most keep remain — the
// retention knob for append-only telemetry tables that would otherwise
// grow without bound. With a journal attached the truncation is
// journaled first, so a restarted database recovers only the surviving
// rows; journal failure leaves the table unchanged. Returns how many
// rows were dropped. Old journal records are reclaimed lazily by the
// store's segment compaction, not rewritten here.
func (t *Table) TruncateHead(keep int) (int, error) {
	if keep < 0 {
		keep = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	drop := t.rows - keep
	if drop <= 0 {
		return 0, nil
	}
	below := t.firstSeq + uint64(drop)
	if t.journal != nil {
		if err := t.journal.truncate(t.name, below); err != nil {
			return 0, fmt.Errorf("metricdb: journaling %s truncation: %w", t.name, err)
		}
	}
	// Copy the survivors into fresh slices so the dropped prefix is
	// actually released, not pinned by the shared backing arrays.
	t.floats = survivors(t.floats, drop*t.width[TypeFloat])
	t.ints = survivors(t.ints, drop*t.width[TypeInt])
	t.strs = survivors(t.strs, drop*t.width[TypeString])
	t.rows = keep
	t.firstSeq = below
	return drop, nil
}

// ColumnIndex returns the position of the named column, or an error.
func (t *Table) ColumnIndex(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("metricdb: table %s has no column %s", t.name, name)
	}
	return i, nil
}

// survivors returns a fresh copy of s without its first drop elements.
func survivors[T any](s []T, drop int) []T {
	return append(make([]T, 0, len(s)-drop), s[drop:]...)
}

// Select returns copies of all rows matching the predicate (nil matches
// everything), in insertion order. The predicate sees one scratch row,
// refilled for every row it tests, so it must not retain its argument.
func (t *Table) Select(where func(Row) bool) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Row
	scratch := make(Row, len(t.columns))
	for i := range t.rows {
		t.rowInto(scratch, i)
		if where == nil || where(scratch) {
			out = append(out, slices.Clone(scratch))
		}
	}
	return out
}

// DB is a named collection of tables, optionally journaling every
// mutation into a durable store (see OpenDB).
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	journal *journal
}

// NewDB returns an empty in-memory database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable adds a new table. It fails if the name already exists.
// With a journal attached the schema is journaled durably first.
func (db *DB) CreateTable(name string, columns []Column) (*Table, error) {
	return db.createTable(name, columns, false)
}

// GetOrCreateTable returns the named table, creating it (as CreateTable
// does) when it does not exist yet. An existing table with a different
// schema is an error. Concurrent callers on a fresh database all get the
// one table, and its schema is journaled once.
func (db *DB) GetOrCreateTable(name string, columns []Column) (*Table, error) {
	return db.createTable(name, columns, true)
}

// createTable is CreateTable, or GetOrCreateTable when reuse is set.
func (db *DB) createTable(name string, columns []Column, reuse bool) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if old, dup := db.tables[name]; dup {
		switch {
		case !reuse:
			return nil, fmt.Errorf("metricdb: table %s already exists", name)
		case !slices.Equal(old.columns, columns):
			return nil, fmt.Errorf("metricdb: table %s exists with a different schema", name)
		}
		return old, nil
	}
	t, err := NewTable(name, columns)
	if err != nil {
		return nil, err
	}
	if db.journal != nil {
		if err := db.journal.createTable(name, t.Columns()); err != nil {
			return nil, fmt.Errorf("metricdb: journaling table %s: %w", name, err)
		}
		t.journal = db.journal
	}
	db.tables[name] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("metricdb: no table %s", name)
	}
	return t, nil
}

// TableNames returns the sorted table names.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// dump is the JSON persistence schema.
type dump struct {
	Tables []tableDump `json:"tables"`
}

type tableDump struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// WriteJSON serialises the whole database.
func (db *DB) WriteJSON(w io.Writer) error {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var d dump
	for _, n := range names {
		t := db.tables[n]
		t.mu.RLock()
		w := len(t.columns)
		td := tableDump{Name: t.name, Columns: t.Columns(), Rows: make([]Row, t.rows)}
		cells := make([]Value, t.rows*w)
		for i := range td.Rows {
			td.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
			t.rowInto(td.Rows[i], i)
		}
		t.mu.RUnlock()
		d.Tables = append(d.Tables, td)
	}
	db.mu.RUnlock()

	if err := json.NewEncoder(w).Encode(d); err != nil {
		return fmt.Errorf("metricdb: encoding database: %w", err)
	}
	return nil
}

// ReadJSON deserialises a database written by WriteJSON.
func ReadJSON(r io.Reader) (*DB, error) {
	var d dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("metricdb: decoding database: %w", err)
	}
	db := NewDB()
	for _, td := range d.Tables {
		t, err := db.CreateTable(td.Name, td.Columns)
		if err != nil {
			return nil, err
		}
		if err := t.InsertMany(td.Rows); err != nil {
			return nil, err
		}
	}
	return db, nil
}
