package tuffy

import (
	"encoding/binary"
	"testing"

	"tuffy/internal/codec"
	"tuffy/internal/mln"
)

// FuzzReadSnapshot feeds arbitrary snapshot bodies to the snapshot decoder
// against the Figure 1 program. The harness seals each input with the
// magic and a valid checksum, so the fuzzer explores the decoder past the
// CRC gate. Every input must decode or fail with an error, never panic;
// a decoded snapshot must also rebuild its network. The seed corpus under
// testdata/fuzz holds the bodies of real snapshots.
func FuzzReadSnapshot(f *testing.F) {
	prog, err := LoadProgramString(mln.Figure1Program)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := append([]byte(snapshotMagic), body...)
		raw = binary.LittleEndian.AppendUint32(raw, codec.Checksum(raw))
		if s, err := decodeSnapshot(raw, prog); err == nil {
			s.buildResult(prog)
		}
	})
}
