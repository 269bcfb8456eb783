package metricdb

import (
	"testing"
)

func intColSchema() []Column {
	return []Column{{Name: "n", Type: TypeInt}}
}

func fillInts(t *testing.T, tbl *Table, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := tbl.Insert(Row{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func intsOf(tbl *Table) []int64 {
	rows := tbl.Select(nil)
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	return out
}

func TestTruncateHeadInMemory(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable("events", intColSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillInts(t, tbl, 0, 10)

	dropped, err := tbl.TruncateHead(3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 7 {
		t.Errorf("dropped = %d, want 7", dropped)
	}
	if got := intsOf(tbl); len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Errorf("survivors = %v, want [7 8 9]", got)
	}

	// Truncating to a larger keep than the row count is a no-op.
	if d, err := tbl.TruncateHead(100); err != nil || d != 0 {
		t.Errorf("over-keep truncate = %d, %v; want 0, nil", d, err)
	}
	// keep < 0 clamps to dropping everything.
	if d, err := tbl.TruncateHead(-1); err != nil || d != 3 {
		t.Errorf("negative-keep truncate = %d, %v; want 3, nil", d, err)
	}
	if tbl.Len() != 0 {
		t.Errorf("rows after full truncate = %d", tbl.Len())
	}
}

// TestTruncationSurvivesRestart journals a truncation marker and checks
// that recovery serves only the surviving rows, that inserts resume at
// the right sequence, and that a second truncation shadows the first.
func TestTruncationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openDB(t, st)
	tbl, err := db.CreateTable("events", intColSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillInts(t, tbl, 0, 10)
	if _, err := tbl.TruncateHead(4); err != nil { // keeps 6..9
		t.Fatal(err)
	}
	fillInts(t, tbl, 10, 12) // seqs continue 10, 11
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	back, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := back.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	got := intsOf(tbl2)
	want := []int64{6, 7, 8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("recovered rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered rows = %v, want %v", got, want)
		}
	}

	// Truncate again after recovery: the marker must account for the
	// recovered firstSeq, and the newest marker wins the next recovery.
	if _, err := tbl2.TruncateHead(2); err != nil { // keeps 10, 11
		t.Fatal(err)
	}
	fillInts(t, tbl2, 12, 13)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3 := openStore(t, dir)
	defer st3.Close()
	final, err := OpenDB(st3)
	if err != nil {
		t.Fatal(err)
	}
	tbl3, err := final.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	got = intsOf(tbl3)
	want = []int64{10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("second recovery rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("second recovery rows = %v, want %v", got, want)
		}
	}
}

// TestTruncateEverythingSurvivesRestart retires every row; recovery must
// yield an empty table whose inserts still resume past the old journal.
func TestTruncateEverythingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	db := openDB(t, st)
	tbl, err := db.CreateTable("events", intColSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillInts(t, tbl, 0, 5)
	if _, err := tbl.TruncateHead(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	back, err := OpenDB(st2)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := back.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 0 {
		t.Fatalf("recovered rows = %v, want none", intsOf(tbl2))
	}
	fillInts(t, tbl2, 5, 7)
	if got := intsOf(tbl2); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("post-recovery inserts = %v, want [5 6]", got)
	}
}
