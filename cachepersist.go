package tuffy

// Result-cache persistence for the serving layer. With ServerConfig.DataDir
// set, Close / CheckpointCache serialize the cache to DataDir/cache.tfy and
// Serve reloads it, so a warm-started tuffyd answers its pre-crash working
// set from cache immediately.
//
// Why reloading is sound: every entry is epoch-keyed ("e<gen>|..."), and the
// cache is only written after the engines' own updates are durable, so a
// persisted entry's epoch is at most the epoch the engines recover to.
// Engine epochs are monotone and never reused; a reloaded entry therefore
// either carries the recovered epoch — in which case its answer is, by the
// engine's bit-identical replay guarantee, exactly what a fresh run would
// produce — or a superseded epoch, in which case no lookup can ever reach
// it (lookups use the current epoch's prefix) and the next sweep or FIFO
// eviction collects it.
//
// Unlike the engine snapshot, the cache file is never a source of truth: a
// missing, truncated, corrupt, or program-mismatched file just starts the
// cache empty.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"time"

	"tuffy/internal/codec"
	"tuffy/internal/mln"
)

const (
	cacheMagic   = "TFYCACH1"
	cacheVersion = 1
	cacheFile    = "cache.tfy"

	cacheKindMAP      = 1
	cacheKindMarginal = 2
)

// CheckpointCache atomically persists the current result cache to
// ServerConfig.DataDir. It is called by Close; exposing it separately lets
// long-running servers checkpoint the cache without shutting down.
func (s *Server) CheckpointCache() error {
	if s.cfg.DataDir == "" || !s.cache.Enabled() {
		return nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	eng := s.backends[0].eng
	predIdx := mln.PredIndex(eng.prog)
	w := &codec.Enc{}
	w.B = append(w.B, cacheMagic...)
	w.U32(cacheVersion)
	w.U64(fingerprintProgram(eng.prog, eng.cfg))
	nOff := len(w.B)
	w.U32(0) // entry count, patched below
	n := uint32(0)
	s.cache.ForEach(func(key string, v any) {
		switch r := v.(type) {
		case *MAPResult:
			w.Str(key)
			w.U8(cacheKindMAP)
			encodeMAPResult(w, predIdx, r)
			n++
		case *MarginalResult:
			w.Str(key)
			w.U8(cacheKindMarginal)
			encodeMarginalResult(w, predIdx, r)
			n++
		}
	})
	binary.LittleEndian.PutUint32(w.B[nOff:], n)
	w.U32(codec.Checksum(w.B))
	return codec.WriteFileAtomic(filepath.Join(s.cfg.DataDir, cacheFile), w.B, nil)
}

// loadCache refills the cache from DataDir/cache.tfy. Any defect —
// missing file, bad CRC, version or program mismatch, malformed entry —
// abandons the load and starts empty; partial loads keep the entries
// decoded before the defect (each was independently validated).
func (s *Server) loadCache() {
	buf, err := os.ReadFile(filepath.Join(s.cfg.DataDir, cacheFile))
	if err != nil || len(buf) < len(cacheMagic)+4+8+4+4 {
		return
	}
	if string(buf[:len(cacheMagic)]) != cacheMagic {
		return
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if codec.Checksum(body) != binary.LittleEndian.Uint32(tail) {
		return
	}
	eng := s.backends[0].eng
	d := &codec.Dec{B: body, Off: len(cacheMagic)}
	if d.U32() != cacheVersion {
		return
	}
	if d.U64() != fingerprintProgram(eng.prog, eng.cfg) {
		return
	}
	n := int(d.U32())
	for i := 0; i < n; i++ {
		key := d.Str()
		kind := d.U8()
		if d.Err != nil {
			return
		}
		switch kind {
		case cacheKindMAP:
			r := decodeMAPResult(d, eng.prog)
			if d.Err != nil {
				return
			}
			s.cache.Put(key, r)
		case cacheKindMarginal:
			r := decodeMarginalResult(d, eng.prog)
			if d.Err != nil {
				return
			}
			s.cache.Put(key, r)
		default:
			return
		}
	}
}

func encodeAtom(w *codec.Enc, predIdx map[*mln.Predicate]int32, a mln.GroundAtom) {
	w.U32(uint32(predIdx[a.Pred]))
	for _, arg := range a.Args {
		w.U32(uint32(arg))
	}
}

func decodeAtom(d *codec.Dec, prog *mln.Program) mln.GroundAtom {
	pi := int(d.U32())
	if d.Err == nil && (pi < 0 || pi >= len(prog.Preds)) {
		d.Fail("atom references predicate %d of %d", pi, len(prog.Preds))
	}
	if d.Err != nil {
		return mln.GroundAtom{}
	}
	pred := prog.Preds[pi]
	args := make([]int32, pred.Arity())
	for k := range args {
		args[k] = int32(d.U32())
	}
	return mln.GroundAtom{Pred: pred, Args: args}
}

func encodeMAPResult(w *codec.Enc, predIdx map[*mln.Predicate]int32, r *MAPResult) {
	w.U64(r.Epoch)
	w.F64(r.Cost)
	w.U64(uint64(r.Flips))
	w.U64(uint64(r.GroundTime))
	w.U64(uint64(r.SearchTime))
	w.U32(uint32(r.Partitions))
	w.U32(uint32(r.CutClauses))
	w.U32(uint32(r.InDBComponents))
	w.U32(uint32(len(r.TrueAtoms)))
	for _, a := range r.TrueAtoms {
		encodeAtom(w, predIdx, a)
	}
	w.U32(uint32(len(r.State)))
	packed := make([]byte, (len(r.State)+7)/8)
	for i, v := range r.State {
		if v {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	w.B = append(w.B, packed...)
}

func decodeMAPResult(d *codec.Dec, prog *mln.Program) *MAPResult {
	r := &MAPResult{}
	r.Epoch = d.U64()
	r.Cost = d.F64()
	r.Flips = int64(d.U64())
	r.GroundTime = time.Duration(d.U64())
	r.SearchTime = time.Duration(d.U64())
	r.Partitions = int(d.U32())
	r.CutClauses = int(d.U32())
	r.InDBComponents = int(d.U32())
	na := d.Count(4) // an atom takes at least its predicate index
	r.TrueAtoms = make([]mln.GroundAtom, 0, na)
	for i := 0; i < na; i++ {
		r.TrueAtoms = append(r.TrueAtoms, decodeAtom(d, prog))
		if d.Err != nil {
			return nil
		}
	}
	ns := int(d.U32())
	packed := d.Take((ns + 7) / 8)
	if d.Err != nil {
		return nil
	}
	r.State = make([]bool, ns)
	for i := range r.State {
		r.State[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return r
}

func encodeMarginalResult(w *codec.Enc, predIdx map[*mln.Predicate]int32, r *MarginalResult) {
	w.U64(r.Epoch)
	w.U32(uint32(len(r.Probs)))
	for _, p := range r.Probs {
		encodeAtom(w, predIdx, p.Atom)
		w.F64(p.P)
	}
}

func decodeMarginalResult(d *codec.Dec, prog *mln.Program) *MarginalResult {
	r := &MarginalResult{}
	r.Epoch = d.U64()
	np := d.Count(12) // predicate index + probability
	r.Probs = make([]AtomProb, 0, np)
	for i := 0; i < np; i++ {
		a := decodeAtom(d, prog)
		p := d.F64()
		if d.Err != nil {
			return nil
		}
		r.Probs = append(r.Probs, AtomProb{Atom: a, P: p})
	}
	return r
}
