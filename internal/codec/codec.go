// Package codec is the module's one binary codec: the little-endian field
// encoding shared by the engine snapshot, the result-cache file, the WAL's
// evidence-delta records and the distributed tier's wire messages, plus the
// CRC32-C checksum and the atomic file writer those formats rely on.
//
// Payloads are flat field sequences with no reflection and no framing
// inside them: an Enc appends fields, a Dec reads them back in the same
// order.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Enc is a little-endian payload builder.
type Enc struct{ B []byte }

func (e *Enc) U8(v byte)      { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16)   { e.B = binary.LittleEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32)   { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)   { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)    { e.U64(uint64(v)) }
func (e *Enc) F64(v float64)  { e.U64(math.Float64bits(v)) }
func (e *Enc) Str(v string)   { e.U32(uint32(len(v))); e.B = append(e.B, v...) }
func (e *Enc) Bytes(v []byte) { e.U32(uint32(len(v))); e.B = append(e.B, v...) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bits writes a 1-based bool slice (index 0 unused) as a count plus a
// packed bitset.
func (e *Enc) Bits(v []bool) {
	n := 0
	if len(v) > 0 {
		n = len(v) - 1
	}
	e.U32(uint32(n))
	var cur byte
	for i := 1; i <= n; i++ {
		if v[i] {
			cur |= 1 << ((i - 1) % 8)
		}
		if (i-1)%8 == 7 || i == n {
			e.B = append(e.B, cur)
			cur = 0
		}
	}
}

// Floats writes a 1-based float64 slice (index 0 unused) as a count plus
// the values.
func (e *Enc) Floats(v []float64) {
	n := 0
	if len(v) > 0 {
		n = len(v) - 1
	}
	e.U32(uint32(n))
	for i := 1; i <= n; i++ {
		e.F64(v[i])
	}
}

// ErrMalformed is the error every failed read of a Dec without its own
// Sentinel wraps.
var ErrMalformed = errors.New("malformed encoding")

// Dec is the matching reader. The first failed read latches Err and every
// later read returns a zero value, so decoders read straight through and
// check Err once. Lengths are validated against the remaining bytes
// before anything is allocated for them.
type Dec struct {
	B   []byte
	Off int
	Err error
	// Sentinel, when set, replaces ErrMalformed as the error every latched
	// failure wraps, so a caller's own typed error survives errors.Is.
	Sentinel error
}

// Fail latches a decode error (the first one wins).
func (d *Dec) Fail(format string, args ...any) {
	if d.Err != nil {
		return
	}
	sentinel := d.Sentinel
	if sentinel == nil {
		sentinel = ErrMalformed
	}
	d.Err = fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
}

// Remaining reports the bytes not read yet.
func (d *Dec) Remaining() int { return len(d.B) - d.Off }

// Take returns the next n bytes (aliasing B), or nil after a failure.
func (d *Dec) Take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Fail("need %d bytes at offset %d of %d", n, d.Off, len(d.B))
		return nil
	}
	v := d.B[d.Off : d.Off+n]
	d.Off += n
	return v
}

func (d *Dec) U8() byte {
	if v := d.Take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *Dec) U16() uint16 {
	if v := d.Take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if v := d.Take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if v := d.Take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Count reads a u32 element count and checks that that many elements of
// at least minSize bytes each fit in the remaining payload, so a corrupt
// count can never drive a huge allocation. It returns 0 after a failure.
func (d *Dec) Count(minSize int) int {
	n := d.U32()
	if d.Err != nil {
		return 0
	}
	if uint64(n)*uint64(max(minSize, 1)) > uint64(d.Remaining()) {
		d.Fail("count of %d entries overruns payload at offset %d of %d", n, d.Off, len(d.B))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (d *Dec) Bytes() []byte {
	v := d.Take(d.Count(1))
	if v == nil {
		return nil
	}
	return append([]byte{}, v...)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Take(d.Count(1))) }

// Bits is Enc.Bits' inverse.
func (d *Dec) Bits() []bool {
	n := int(d.U32())
	packed := d.Take((n + 7) / 8)
	if packed == nil {
		return nil
	}
	out := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		out[i] = packed[(i-1)/8]&(1<<((i-1)%8)) != 0
	}
	return out
}

// Floats is Enc.Floats' inverse.
func (d *Dec) Floats() []float64 {
	n := d.Count(8)
	if d.Err != nil {
		return nil
	}
	out := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		out[i] = d.F64()
	}
	return out
}

// Finish reports the latched error, also rejecting trailing bytes.
func (d *Dec) Finish() error {
	if d.Err == nil && d.Off != len(d.B) {
		d.Fail("%d trailing bytes", len(d.B)-d.Off)
	}
	return d.Err
}
