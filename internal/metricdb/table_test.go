package metricdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func sampleSchema() []Column {
	return []Column{
		{Name: "scenario", Type: TypeInt},
		{Name: "metric", Type: TypeString},
		{Name: "value", Type: TypeFloat},
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", sampleSchema()); err == nil {
		t.Error("empty table name did not error")
	}
	if _, err := NewTable("t", nil); err == nil {
		t.Error("no columns did not error")
	}
	if _, err := NewTable("t", []Column{{Name: "", Type: TypeFloat}}); err == nil {
		t.Error("empty column name did not error")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: 0}}); err == nil {
		t.Error("invalid column type did not error")
	}
	dup := []Column{{Name: "a", Type: TypeFloat}, {Name: "a", Type: TypeInt}}
	if _, err := NewTable("t", dup); err == nil {
		t.Error("duplicate column did not error")
	}
}

func TestInsertAndSelect(t *testing.T) {
	tbl, err := NewTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(1), String("MIPS"), Float(1000)},
		{Int(1), String("IPC"), Float(0.9)},
		{Int(2), String("MIPS"), Float(800)},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}

	got := tbl.Select(func(r Row) bool { return r[0].I == 1 })
	if len(got) != 2 {
		t.Errorf("Select scenario=1 returned %d rows, want 2", len(got))
	}
	all := tbl.Select(nil)
	if len(all) != 3 {
		t.Errorf("Select(nil) returned %d rows, want 3", len(all))
	}
}

func TestInsertWrongArity(t *testing.T) {
	tbl, _ := NewTable("samples", sampleSchema())
	if err := tbl.Insert(Row{Int(1)}); err == nil {
		t.Error("short row did not error")
	}
}

func TestSelectReturnsCopies(t *testing.T) {
	tbl, _ := NewTable("samples", sampleSchema())
	if err := tbl.Insert(Row{Int(1), String("MIPS"), Float(5)}); err != nil {
		t.Fatal(err)
	}
	got := tbl.Select(nil)
	got[0][2] = Float(99)
	again := tbl.Select(nil)
	if again[0][2].F != 5 {
		t.Error("Select exposed internal row storage")
	}
}

// TestSelectScanAllocs checks that a scan allocates for the rows it
// returns, not for the rows its predicate rejects: the predicate sees one
// reused scratch row.
func TestSelectScanAllocs(t *testing.T) {
	tbl, _ := NewTable("samples", sampleSchema())
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(Row{Int(int64(i)), String("MIPS"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := tbl.Select(func(r Row) bool { return r[0].I == 500 }); len(got) != 1 {
			t.Fatalf("Select matched %d rows, want 1", len(got))
		}
	})
	if allocs > 3 { // the scratch row, the match's copy, the result slice
		t.Errorf("a 1000-row scan matching one row allocates %v times, want <= 3", allocs)
	}
}

func TestDBCreateAndLookup(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("a", sampleSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", sampleSchema()); err == nil {
		t.Error("duplicate table did not error")
	}
	if _, err := db.Table("a"); err != nil {
		t.Errorf("Table(a) errored: %v", err)
	}
	if _, err := db.Table("b"); err == nil {
		t.Error("missing table did not error")
	}
	if _, err := db.CreateTable("b", sampleSchema()); err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("TableNames = %v, want [a b]", names)
	}
}

func TestDBJSONRoundTrip(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("samples", sampleSchema())
	_ = tbl.Insert(Row{Int(7), String("IPC"), Float(1.25)})

	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := back.Table("samples")
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Select(nil)
	if len(rows) != 1 {
		t.Fatalf("round trip lost rows: %d", len(rows))
	}
	if rows[0][0].I != 7 || rows[0][1].S != "IPC" || rows[0][2].F != 1.25 {
		t.Errorf("round-trip row = %+v", rows[0])
	}
}

func TestReadJSONGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage input did not error")
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	tbl, _ := NewTable("samples", sampleSchema())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tbl.Insert(Row{Int(int64(g)), String("MIPS"), Float(float64(i))})
				tbl.Select(func(r Row) bool { return r[0].I == int64(g) })
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 800 {
		t.Errorf("concurrent inserts lost rows: %d, want 800", tbl.Len())
	}
}

func TestColTypeString(t *testing.T) {
	if TypeFloat.String() != "float" || TypeInt.String() != "int" || TypeString.String() != "string" {
		t.Error("ColType.String wrong")
	}
}

// TestMetricDBFlatRows drives a table through mixed-size InsertMany
// batches, single inserts and TruncateHead retentions beside a
// row-at-a-time reference ([]Row), and requires Len, Select (all and
// filtered), Floats and WriteJSON to match the reference after every
// step. Mutating the caller's rows after the insert, or a row Select
// returned, must not reach the table.
func TestMetricDBFlatRows(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	var ref []Row
	next := 0
	insert := func(n int) {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Int(int64(next)), String(fmt.Sprintf("m%d", next%3)), Float(float64(next) / 4)}
			ref = append(ref, slices.Clone(rows[i]))
			next++
		}
		if n == 1 {
			err = tbl.Insert(rows[0])
		} else {
			err = tbl.InsertMany(rows)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			r[2] = Float(-1) // the caller reuses its buffers
		}
	}
	truncate := func(keep int) {
		drop, err := tbl.TruncateHead(keep)
		if err != nil {
			t.Fatal(err)
		}
		want := max(0, len(ref)-keep)
		if drop != want {
			t.Fatalf("TruncateHead(%d) dropped %d, want %d", keep, drop, want)
		}
		ref = append([]Row(nil), ref[want:]...)
	}
	m1 := func(r Row) bool { return r[1].S == "m1" }
	check := func(step string) {
		t.Helper()
		if tbl.Len() != len(ref) {
			t.Fatalf("%s: Len %d, want %d", step, tbl.Len(), len(ref))
		}
		all := tbl.Select(nil)
		if !reflect.DeepEqual(all, ref) && !(len(all) == 0 && len(ref) == 0) {
			t.Fatalf("%s: Select(nil) = %v, want %v", step, all, ref)
		}
		var wantM1 []Row
		for _, r := range ref {
			if m1(r) {
				wantM1 = append(wantM1, r)
			}
		}
		if got := tbl.Select(m1); !reflect.DeepEqual(got, wantM1) {
			t.Fatalf("%s: Select(m1) = %v, want %v", step, got, wantM1)
		}
		if len(all) > 0 {
			all[0][0] = Int(-7)
			if tbl.Select(nil)[0][0].I == -7 {
				t.Fatalf("%s: mutating a selected row reached the table", step)
			}
		}
		var got, want bytes.Buffer
		if err := db.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		rows := ref
		if rows == nil {
			rows = []Row{}
		}
		if err := json.NewEncoder(&want).Encode(dump{Tables: []tableDump{
			{Name: "samples", Columns: sampleSchema(), Rows: rows}}}); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: WriteJSON\n%s\nwant\n%s", step, got.String(), want.String())
		}
	}
	check("empty")
	for step, op := range []func(){
		func() { insert(5) }, func() { insert(1) }, func() { truncate(4) },
		func() { insert(7) }, func() { truncate(20) }, func() { insert(1) },
		func() { truncate(0) }, func() { insert(3) }, func() { truncate(1) },
		func() { insert(2) }, func() { insert(1) },
	} {
		op()
		check(fmt.Sprintf("step %d", step))
	}
}

// TestFlatRowsConcurrentWriteJSON encodes the database while other
// goroutines append and truncate: WriteJSON builds each table's rows
// from its typed columns under the table's read lock and encodes them
// after releasing it. Run it under -race.
func TestFlatRowsConcurrentWriteJSON(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable("samples", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rows := []Row{{Int(int64(g)), String("MIPS"), Float(float64(i))}, {Int(int64(g)), String("IPC"), Float(1)}}
				if err := tbl.InsertMany(rows); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 49 {
					if _, err := tbl.TruncateHead(100); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			if err := db.WriteJSON(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := ReadJSON(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
