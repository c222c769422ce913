package mln

import (
	"bytes"
	"testing"
)

// FuzzDecodeDelta feeds arbitrary delta records to DecodeDelta against the
// Figure 1 program. Every input must decode or fail with an error, never
// panic, and a record that decodes must re-encode to the same bytes (the
// format has one encoding per delta).
func FuzzDecodeDelta(f *testing.F) {
	prog, err := ParseProgramString(Figure1Program)
	if err != nil {
		f.Fatal(err)
	}
	predIdx := PredIndex(prog)
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := DecodeDelta(prog, payload)
		if err != nil {
			return
		}
		if got := EncodeDelta(predIdx, d); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", got, payload)
		}
	})
}
