package exec

import (
	"fmt"
	"testing"

	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
)

func rangeTestHeap(t *testing.T, n int) (*storage.HeapFile, tuple.Schema, []storage.RecordID) {
	t.Helper()
	heap := storage.NewHeapFile(storage.NewBufferPool(storage.NewMemDisk(), 8), 1)
	sch := tuple.NewSchema(tuple.Col("id", tuple.TInt), tuple.Col("name", tuple.TString))
	var rids []storage.RecordID
	for i := 0; i < n; i++ {
		rec, err := tuple.Encode(sch, tuple.Row{tuple.I64(int64(i)), tuple.Str(fmt.Sprintf("n%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		rid, err := heap.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	return heap, sch, rids
}

// The residues of a hash-range split partition the table: every row lands
// in exactly one range, on an int column and on a string column alike, and
// the pushed-down scan agrees with the HashInRange predicate form.
func TestRangeScanPartitionsTable(t *testing.T) {
	const n, mod = 300, 4
	heap, sch, _ := rangeTestHeap(t, n)
	for col := 0; col < 2; col++ {
		seen := make(map[int64]int)
		for rem := uint32(0); rem < mod; rem++ {
			rows, err := Collect(NewRangeScan(heap, sch, col, mod, rem))
			if err != nil {
				t.Fatal(err)
			}
			pred := HashInRange{Idx: col, Mod: mod, Rem: rem}
			for _, r := range rows {
				seen[r[0].I]++
				if v, err := pred.Eval(r); err != nil || v.I != 1 {
					t.Fatalf("col %d rem %d: row %v fails the predicate form (%v)", col, rem, r, err)
				}
			}
			if len(rows) == 0 || len(rows) == n {
				t.Fatalf("col %d rem %d holds %d of %d rows: the hash does not spread", col, rem, len(rows), n)
			}
		}
		if len(seen) != n {
			t.Fatalf("col %d: ranges cover %d of %d rows", col, len(seen), n)
		}
		for id, k := range seen {
			if k != 1 {
				t.Fatalf("col %d: row %d in %d ranges", col, id, k)
			}
		}
	}
	if err := NewRangeScan(heap, sch, 0, 0, 0).Open(); err == nil {
		t.Fatal("mod 0 accepted")
	}
	if _, err := (HashInRange{Idx: 5, Mod: 2}).Eval(tuple.Row{tuple.I64(1)}); err == nil {
		t.Fatal("out-of-row column accepted")
	}
	if HashValue(tuple.I64(7)) != HashValue(tuple.I64(7)) || HashValue(tuple.Str("a")) == HashValue(tuple.Str("b")) {
		t.Fatal("HashValue is not a stable, spreading hash")
	}
}

// RIDScan emits the requested records in heap order whatever order the ids
// arrive in, and skips records deleted since the ids were read.
func TestRIDScanHeapOrderSkipsDeleted(t *testing.T) {
	heap, sch, rids := rangeTestHeap(t, 200)
	want := []int{150, 3, 77, 199, 0, 120}
	var req []storage.RecordID
	for _, i := range want {
		req = append(req, rids[i])
	}
	if err := heap.Delete(rids[77]); err != nil {
		t.Fatal(err)
	}
	s := NewRIDScan(heap, sch, req)
	if _, _, err := s.Next(); err == nil {
		t.Fatal("Next before Open succeeded")
	}
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range rows {
		got = append(got, r[0].I)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int64{0, 3, 120, 150, 199}) {
		t.Fatalf("RIDScan rows %v, want heap order without the deleted row", got)
	}
	if s.Schema().Arity() != 2 {
		t.Fatal("schema lost")
	}
}
