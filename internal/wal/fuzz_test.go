package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen opens a log file holding arbitrary bytes. Open must never fail
// or panic on content: it keeps the intact prefix of frames and repairs
// the rest. The repaired log must then behave like any other: a record
// appended and synced after the kept ones survives a reopen, in order and
// with the next LSN.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		kept := make([]Record, len(recs))
		for i, r := range recs {
			kept[i] = Record{LSN: r.LSN, Type: r.Type, Payload: bytes.Clone(r.Payload)}
		}
		lsn, err := l.Append(TypeDelta, []byte("fuzz"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, recs2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		want := append(kept, Record{LSN: lsn, Type: TypeDelta, Payload: []byte("fuzz")})
		if len(recs2) != len(want) {
			t.Fatalf("reopen kept %d records, want %d", len(recs2), len(want))
		}
		for i, r := range recs2 {
			w := want[i]
			if r.LSN != w.LSN || r.Type != w.Type || !bytes.Equal(r.Payload, w.Payload) {
				t.Fatalf("record %d after reopen: lsn %d type %d, want lsn %d type %d", i, r.LSN, r.Type, w.LSN, w.Type)
			}
			if i > 0 && r.LSN != recs2[i-1].LSN+1 {
				t.Fatalf("LSN gap at record %d: %d after %d", i, r.LSN, recs2[i-1].LSN)
			}
		}
	})
}
