package mln

import (
	"fmt"

	"tuffy/internal/codec"
)

// EncodeDelta frames one evidence delta as a compact positional record:
// predicates by program index, constants as interned ids, three-valued
// truth — the format the durability WAL logs and the distributed tier
// fans out to workers. It is valid only between readers that share the
// exact program (the fingerprint handshake of both layers enforces that).
// predIdx maps each predicate to its index in the program's Preds slice.
func EncodeDelta(predIdx map[*Predicate]int32, d Delta) []byte {
	var e codec.Enc
	e.U32(uint32(len(d.Ops)))
	for _, op := range d.Ops {
		e.U32(uint32(predIdx[op.Pred]))
		e.U8(byte(op.Truth))
		for _, a := range op.Args {
			e.U32(uint32(a))
		}
	}
	return e.B
}

// PredIndex builds the predicate-to-index map EncodeDelta keys on.
func PredIndex(prog *Program) map[*Predicate]int32 {
	idx := make(map[*Predicate]int32, len(prog.Preds))
	for i, p := range prog.Preds {
		idx[p] = int32(i)
	}
	return idx
}

// DecodeDelta is EncodeDelta's inverse against the serving program.
func DecodeDelta(prog *Program, payload []byte) (Delta, error) {
	var d Delta
	r := codec.Dec{B: payload}
	n := r.Count(5) // an op takes at least its predicate index and truth
	for i := 0; i < n; i++ {
		pi := int(r.U32())
		if r.Err == nil && (pi < 0 || pi >= len(prog.Preds)) {
			return d, fmt.Errorf("delta op %d references predicate %d of %d", i, pi, len(prog.Preds))
		}
		if r.Err != nil {
			break
		}
		pred := prog.Preds[pi]
		truth := Truth(r.U8())
		args := make([]int32, pred.Arity())
		for j := range args {
			args[j] = int32(r.U32())
		}
		d.Ops = append(d.Ops, DeltaOp{Pred: pred, Args: args, Truth: truth})
	}
	if err := r.Finish(); err != nil {
		return d, fmt.Errorf("delta record: %w", err)
	}
	return d, nil
}
