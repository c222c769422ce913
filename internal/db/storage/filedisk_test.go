package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func page(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

// Pages round-trip within one session; a reopened store starts blank.
func TestFileDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := d.AllocatePage(7)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, page(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := d.NumPages(7); got != 3 {
		t.Fatalf("NumPages = %d, want 3", got)
	}
	buf := make([]byte, PageSize)
	for i, id := range ids {
		if err := d.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page(byte('a'+i))) {
			t.Fatalf("page %v corrupt", id)
		}
	}
	if err := d.ReadPage(PageID{File: 7, Num: 3}, buf); err == nil {
		t.Fatal("read past live pages succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.NumPages(7); got != 0 {
		t.Fatalf("NumPages after reopen = %d, want 0", got)
	}
	if err := d2.ReadPage(ids[0], buf); err == nil {
		t.Fatal("read of a previous session's page succeeded")
	}
}

// A directory holding an older page store's files (segments plus the
// free-list meta file) must open blank and lose those files.
func TestOpenFileDiskDiscardsStaleFiles(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"seg_1": bytes.Repeat(page(0xee), 3),
		"seg_4": page(0xdd),
		"meta":  []byte("TFYDISK1\x00\x00\x00\x00\x00\x00\x00\x00"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, f := range []int32{1, 4} {
		if got := d.NumPages(f); got != 0 {
			t.Fatalf("NumPages(%d) = %d over stale files, want 0", f, got)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("stale files survived open: %v", ents)
	}
	id, err := d.AllocatePage(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if id.Num != 0 || !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatalf("first page %v not a zeroed page 0", id)
	}
}

func TestFileDiskTruncateReusesCapacity(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 4; i++ {
		id, _ := d.AllocatePage(1)
		if err := d.WritePage(id, page(0xff)); err != nil {
			t.Fatal(err)
		}
	}
	sizeAt := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "seg_1"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	high := sizeAt()
	d.TruncateFile(1)
	if got := d.NumPages(1); got != 0 {
		t.Fatalf("NumPages after truncate = %d, want 0", got)
	}
	// Allocation reuses the freed capacity (file stays at high-water mark)
	// and hands out zeroed pages despite the stale 0xff bytes.
	id, err := d.AllocatePage(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatal("reused page not zeroed")
	}
	if got := sizeAt(); got != high {
		t.Fatalf("segment grew to %d on reuse, want high-water %d", got, high)
	}
}

// A buffer pool + heap file running over FileDisk must behave exactly like
// the MemDisk stack.
func TestFileDiskUnderBufferPool(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bp := NewBufferPool(d, 2) // tiny pool forces eviction write-backs
	h := NewHeapFile(bp, 1)
	var rids []RecordID
	for i := 0; i < 20; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if st := d.Stats(); st.Writes == 0 {
		t.Fatal("tiny pool wrote nothing back to disk")
	}
	got := 0
	if err := h.Scan(func(rid RecordID, rec []byte) error {
		if len(rec) != 1000 || rec[0] != byte(got) {
			t.Fatalf("record %d corrupt after write-back", got)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(rids) {
		t.Fatalf("scanned %d records, want %d", got, len(rids))
	}
}
