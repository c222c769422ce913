package codec

import (
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The field encoding is the on-disk and on-the-wire format of the
// snapshot, the cache file, delta records and wire messages, so it is
// pinned byte for byte.
func TestEncodingIsPinned(t *testing.T) {
	var e Enc
	e.U8(0xab)
	e.U16(0x0102)
	e.U32(0x03040506)
	e.U64(0x0708090a0b0c0d0e)
	e.I64(-2)
	e.F64(1.5)
	e.Bool(true)
	e.Str("hi")
	e.Bytes([]byte{9})
	e.Bits([]bool{false, true, false, true})
	e.Floats([]float64{0, 0.5})
	const want = "ab" + "0201" + "06050403" + "0e0d0c0b0a090807" + "feffffffffffffff" +
		"000000000000f83f" + "01" + "020000006869" + "0100000009" + "0300000005" +
		"01000000000000000000e03f"
	if got := hex.EncodeToString(e.B); got != want {
		t.Fatalf("encoding\n got %s\nwant %s", got, want)
	}

	d := Dec{B: e.B}
	if d.U8() != 0xab || d.U16() != 0x0102 || d.U32() != 0x03040506 || d.U64() != 0x0708090a0b0c0d0e ||
		d.I64() != -2 || d.F64() != 1.5 || !d.Bool() || d.Str() != "hi" || string(d.Bytes()) != "\x09" {
		t.Fatal("scalar round trip failed")
	}
	if bits := d.Bits(); len(bits) != 4 || !bits[1] || bits[2] || !bits[3] {
		t.Fatalf("bits round trip: %v", bits)
	}
	if fs := d.Floats(); len(fs) != 2 || fs[1] != 0.5 {
		t.Fatalf("floats round trip: %v", fs)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// A corrupt count fails before anything is allocated for it, the first
// failure latches, and errors wrap the Dec's sentinel.
func TestDecFailures(t *testing.T) {
	var e Enc
	e.U32(math.MaxUint32) // claims 4G entries
	e.U32(7)
	d := Dec{B: e.B}
	if n := d.Count(1); n != 0 || !errors.Is(d.Err, ErrMalformed) {
		t.Fatalf("Count = %d, err %v; want 0 and ErrMalformed", n, d.Err)
	}
	if d.U32() != 0 {
		t.Fatal("read after a failure returned data")
	}

	sentinel := errors.New("bad message")
	d = Dec{B: []byte{1, 2, 3}, Sentinel: sentinel}
	d.U8()
	if err := d.Finish(); !errors.Is(err, sentinel) {
		t.Fatalf("trailing bytes: err %v, want the sentinel", err)
	}
	d = Dec{B: []byte{1}, Sentinel: sentinel}
	if d.U64(); !errors.Is(d.Err, sentinel) {
		t.Fatalf("short read: err %v, want the sentinel", d.Err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFileAtomic(path, []byte("one"), nil); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("crash")
	if err := WriteFileAtomic(path, []byte("two"), func() error { return crash }); !errors.Is(err, crash) {
		t.Fatalf("hook error %v, want it returned as is", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("failed replace left %q, want the old contents", got)
	}
	if err := WriteFileAtomic(path, []byte("three"), nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "three" {
		t.Fatalf("replace left %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}
