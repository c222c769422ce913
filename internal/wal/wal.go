// Package wal implements the engine's append-only delta log: CRC32C-framed,
// LSN-stamped records with group-commit fsync batching, an open-time scan
// that detects and truncates a torn tail, and checkpoint-based truncation.
// The records are engine-level evidence deltas; together with the engine's
// atomic snapshot they are the whole durable state, and a warm start
// replays the deltas committed after the snapshot to reach the latest
// epoch.
package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tuffy/internal/codec"
)

// TypeDelta frames an engine-level evidence delta (payload owned by the
// engine's persistence layer). Type 1 was a page image in older logs;
// readers skip every type they do not know.
const TypeDelta byte = 2

const (
	logMagic   = "TFYWAL01"
	headerSize = len(logMagic) + 8 + 4 // magic, startLSN, crc
	frameHdr   = 4 + 4 + 8 + 1         // crc, payload len, lsn, type
	// maxPayload bounds a frame so a corrupt length field cannot make the
	// scanner allocate wild amounts.
	maxPayload = 1 << 24
)

// Record is one decoded log frame.
type Record struct {
	LSN     uint64
	Type    byte
	Payload []byte
}

// Log is an append-only record log on one file. Append buffers frames in
// memory and assigns LSNs; Sync/SyncTo write and fsync them with
// group-commit batching (concurrent committers coalesce onto one fsync).
// Reset truncates the log at a checkpoint, keeping LSNs monotone across
// the truncation.
type Log struct {
	path string

	mu      sync.Mutex // append state: buf, nextLSN, f's write offset
	f       *os.File
	buf     []byte
	nextLSN uint64

	syncMu    sync.Mutex // serializes the write+fsync step
	syncedLSN atomic.Uint64

	size     atomic.Int64 // bytes in the file (written, not necessarily synced)
	appended atomic.Int64 // lifetime bytes appended (survives Reset)
	syncs    atomic.Int64
	resets   atomic.Int64
}

// Open opens (creating if needed) the log at path, scans it, truncates any
// torn tail, and returns the intact records in order. A missing or
// corrupt header starts a fresh log. The returned records alias one
// buffer read at open; callers consume them before appending.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{path: path, f: f}

	startLSN := uint64(1)
	records := []Record(nil)
	keep := 0 // prefix of raw that is intact
	if hdrLSN, ok := parseHeader(raw); ok {
		startLSN = hdrLSN
		keep = headerSize
		records, keep = scanFrames(raw, headerSize, startLSN)
	}
	if keep == 0 {
		// No (intact) header: write a fresh one.
		if err := l.writeHeader(startLSN); err != nil {
			f.Close()
			return nil, nil, err
		}
		keep = headerSize
	} else if keep < len(raw) {
		// Torn tail: drop the partial or corrupt suffix.
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	l.nextLSN = startLSN + uint64(len(records))
	l.syncedLSN.Store(l.nextLSN - 1)
	l.size.Store(int64(keep))
	return l, records, nil
}

func parseHeader(raw []byte) (startLSN uint64, ok bool) {
	if len(raw) < headerSize || string(raw[:len(logMagic)]) != logMagic {
		return 0, false
	}
	body := raw[:headerSize-4]
	if codec.Checksum(body) != binary.LittleEndian.Uint32(raw[headerSize-4:]) {
		return 0, false
	}
	// LSNs start at 1: a zero start would make the empty log look synced
	// through the maximum LSN, and no append would ever reach the file.
	startLSN = binary.LittleEndian.Uint64(raw[len(logMagic):])
	return startLSN, startLSN != 0
}

// scanFrames walks frames from off, returning the intact records and the
// offset of the first byte that is not part of an intact frame.
func scanFrames(raw []byte, off int, startLSN uint64) ([]Record, int) {
	var out []Record
	want := startLSN
	for {
		if len(raw)-off < frameHdr {
			return out, off
		}
		h := raw[off:]
		crc := binary.LittleEndian.Uint32(h)
		plen := int(binary.LittleEndian.Uint32(h[4:]))
		if plen > maxPayload || len(raw)-off < frameHdr+plen {
			return out, off
		}
		if codec.Checksum(h[4:frameHdr+plen]) != crc {
			return out, off
		}
		lsn := binary.LittleEndian.Uint64(h[8:])
		if lsn != want {
			return out, off
		}
		out = append(out, Record{LSN: lsn, Type: h[16], Payload: h[frameHdr : frameHdr+plen]})
		off += frameHdr + plen
		want++
	}
}

func (l *Log) writeHeader(startLSN uint64) error {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, logMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, startLSN)
	buf = binary.LittleEndian.AppendUint32(buf, codec.Checksum(buf))
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.WriteAt(buf, 0); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size.Store(int64(headerSize))
	return nil
}

// Append frames the record in the in-memory buffer and returns its LSN.
// The record is durable only after a Sync/SyncTo covering that LSN.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds frame limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.nextLSN
	l.nextLSN++
	hdr := make([]byte, 0, frameHdr)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // crc placeholder
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint64(hdr, lsn)
	hdr = append(hdr, typ)
	at := len(l.buf)
	l.buf = append(l.buf, hdr...)
	l.buf = append(l.buf, payload...)
	crc := codec.Checksum(l.buf[at+4:])
	binary.LittleEndian.PutUint32(l.buf[at:], crc)
	l.appended.Add(int64(frameHdr + len(payload)))
	return lsn, nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextLSN - 1
	l.mu.Unlock()
	return l.SyncTo(target)
}

// SyncTo makes records up to lsn durable. Group commit: a committer that
// finds its LSN already synced returns immediately; the one holding the
// sync lock flushes everything buffered so far, so concurrent committers
// share one write+fsync.
func (l *Log) SyncTo(lsn uint64) error {
	if l.syncedLSN.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedLSN.Load() >= lsn {
		return nil // a concurrent leader covered us
	}
	l.mu.Lock()
	buf := l.buf
	l.buf = nil
	target := l.nextLSN - 1
	l.mu.Unlock()
	if len(buf) > 0 {
		if _, err := l.f.WriteAt(buf, l.size.Load()); err != nil {
			return err
		}
		l.size.Add(int64(len(buf)))
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs.Add(1)
	l.syncedLSN.Store(target)
	return nil
}

// Reset truncates the log back to an empty one whose LSNs continue from
// the current position — the checkpoint step after the state the log
// protected has been persisted elsewhere. Buffered unsynced records are
// dropped too (they are covered by the same checkpoint).
func (l *Log) Reset() error { return l.ResetPast(0) }

// ResetPast is Reset with the next LSN moved beyond lsn if it is not there
// already. Recovery uses it when the log restarted below the last LSN a
// snapshot covers, so new records can never be mistaken for covered ones.
func (l *Log) ResetPast(lsn uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = nil
	l.nextLSN = max(l.nextLSN, lsn+1)
	if err := l.writeHeader(l.nextLSN); err != nil {
		return err
	}
	l.syncedLSN.Store(l.nextLSN - 1)
	l.resets.Add(1)
	return nil
}

// NextLSN returns the LSN the next Append will get.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Size reports the log file's current size plus buffered bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	buffered := int64(len(l.buf))
	l.mu.Unlock()
	return l.size.Load() + buffered
}

// AppendedBytes reports lifetime appended bytes (monotone across Resets).
func (l *Log) AppendedBytes() int64 { return l.appended.Load() }

// Syncs reports how many fsync batches have run.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// Resets reports how many checkpoint truncations have run.
func (l *Log) Resets() int64 { return l.resets.Load() }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
