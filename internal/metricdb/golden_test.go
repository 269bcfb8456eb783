package metricdb

import (
	"math"
	"testing"
)

// goldenFill builds the database TestWriteJSONGolden serialises: every
// column type, zero cells, empty and escaped strings, extreme numbers, a
// table truncated at its head and a table without rows.
func goldenFill(t *testing.T, db *DB) {
	t.Helper()
	mixed, err := db.CreateTable("mixed", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "value", Type: TypeFloat},
		{Name: "note", Type: TypeString},
		{Name: "count", Type: TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.InsertMany([]Row{
		{Int(0), String(""), Float(0), String(""), Int(0)},
		{Int(1), String("MIPS"), Float(1000.5), String(`quote" <tag> & \ back`), Int(-7)},
		{Int(math.MaxInt64), String("IPC"), Float(-0.25), String("tab\tnew\nline"), Int(math.MinInt64)},
		{Int(-1), String("héllo, 世界"), Float(math.Copysign(0, -1)), String(""), Int(3)},
		{Int(4), String("tiny"), Float(5e-324), String("big"), Int(0)},
		{Int(5), String("huge"), Float(1e21), String("x"), Int(1)},
	}); err != nil {
		t.Fatal(err)
	}

	trunc, err := db.CreateTable("retained", []Column{
		{Name: "seq", Type: TypeInt},
		{Name: "level", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range []string{"debug", "info", "", "warn", "error"} {
		if err := trunc.Insert(Row{Int(int64(i)), String(lvl)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := trunc.TruncateHead(3); err != nil {
		t.Fatal(err)
	}

	if _, err := db.CreateTable("empty", []Column{{Name: "v", Type: TypeFloat}}); err != nil {
		t.Fatal(err)
	}
}

// writeJSONGolden is DB.WriteJSON of goldenFill, recorded before the
// table's cell storage changed; the bytes must not move.
const writeJSONGolden = `{"tables":[{"name":"empty","columns":[{"name":"v","type":1}],"rows":[]},{"name":"mixed","columns":[{"name":"id","type":2},{"name":"name","type":3},{"name":"value","type":1},{"name":"note","type":3},{"name":"count","type":2}],"rows":[[{},{},{},{},{}],[{"i":1},{"s":"MIPS"},{"f":1000.5},{"s":"quote\" \u003ctag\u003e \u0026 \\ back"},{"i":-7}],[{"i":9223372036854775807},{"s":"IPC"},{"f":-0.25},{"s":"tab\tnew\nline"},{"i":-9223372036854775808}],[{"i":-1},{"s":"héllo, 世界"},{},{},{"i":3}],[{"i":4},{"s":"tiny"},{"f":5e-324},{"s":"big"},{}],[{"i":5},{"s":"huge"},{"f":1e+21},{"s":"x"},{"i":1}]]},{"name":"retained","columns":[{"name":"seq","type":2},{"name":"level","type":3}],"rows":[[{"i":2},{}],[{"i":3},{"s":"warn"}],[{"i":4},{"s":"error"}]]}]}
`

// TestWriteJSONGolden pins WriteJSON's bytes for goldenFill, in memory
// and journaled through a store, before and after a reopen.
func TestWriteJSONGolden(t *testing.T) {
	mem := NewDB()
	goldenFill(t, mem)
	if got := string(dumpJSON(t, mem)); got != writeJSONGolden {
		t.Errorf("in-memory WriteJSON:\n got %s\nwant %s", got, writeJSONGolden)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	goldenFill(t, openDB(t, st))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := string(dumpJSON(t, openDB(t, st2))); got != writeJSONGolden {
		t.Errorf("reopened WriteJSON:\n got %s\nwant %s", got, writeJSONGolden)
	}
}
