package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tuffy"
	"tuffy/internal/mrf"
)

// gate counts operations and failures. A failure is an error, a rejection,
// or an answer that fails a correctness check; any failure fails the run.
type gate struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems []string
}

// op counts one operation and records err as a failure.
func (g *gate) op(what string, err error) bool {
	g.attempted.Add(1)
	if err != nil {
		g.fail("%s: %v", what, err)
		return false
	}
	return true
}

// check counts one correctness check.
func (g *gate) check(ok bool, format string, args ...any) bool {
	g.attempted.Add(1)
	if !ok {
		g.fail(format, args...)
	}
	return ok
}

func (g *gate) fail(format string, args ...any) {
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// mapDigest identifies a MAP answer bit for bit.
type mapDigest struct {
	CostBits   uint64
	Flips      int64
	States     int
	StateHash  uint64
	Partitions int
	Cut        int
}

func fnv(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvBasis = 14695981039346656037

func digestMAP(r *tuffy.MAPResult) mapDigest {
	h := uint64(fnvBasis)
	for _, b := range r.State {
		if b {
			h = fnv(h, 1)
		} else {
			h = fnv(h, 2)
		}
	}
	return mapDigest{CostBits: math.Float64bits(r.Cost), Flips: r.Flips, States: len(r.State),
		StateHash: h, Partitions: r.Partitions, Cut: r.CutClauses}
}

// digestMarginal hashes every atom (predicate, arguments) and the exact
// bits of its probability.
func digestMarginal(r *tuffy.MarginalResult) uint64 {
	h := uint64(fnvBasis)
	for _, p := range r.Probs {
		for _, c := range p.Atom.Pred.Name {
			h = fnv(h, uint64(c))
		}
		for _, a := range p.Atom.Args {
			h = fnv(h, uint64(a))
		}
		h = fnv(h, math.Float64bits(p.P))
	}
	return fnv(h, uint64(len(r.Probs)))
}

// costConsistent recomputes the cost of a MAP answer's state on the
// network it was computed on. Component and partition searches sum their
// parts in another order, so the comparison allows rounding.
func costConsistent(m *mrf.MRF, r *tuffy.MAPResult) bool {
	if len(r.State) != m.NumAtoms+1 {
		return false
	}
	want := m.Cost(r.State)
	if math.IsInf(want, 1) || math.IsInf(r.Cost, 1) {
		return math.IsInf(want, 1) == math.IsInf(r.Cost, 1)
	}
	return math.Abs(want-r.Cost) <= 1e-6*math.Max(1, math.Abs(want))
}

// fingerprintMRF hashes a grounded network: atoms (predicate and
// arguments), clause weights as exact bits, literals and the fixed cost.
func fingerprintMRF(m *mrf.MRF) uint64 {
	h := fnv(fnvBasis, uint64(m.NumAtoms))
	h = fnv(h, math.Float64bits(m.FixedCost))
	for a := 1; a <= m.NumAtoms && a < len(m.Atoms); a++ {
		for _, c := range m.Atoms[a].Pred.Name {
			h = fnv(h, uint64(c))
		}
		for _, x := range m.Atoms[a].Args {
			h = fnv(h, uint64(x))
		}
	}
	for _, c := range m.Clauses {
		h = fnv(h, math.Float64bits(c.Weight))
		for _, l := range c.Lits {
			h = fnv(h, uint64(int64(l)))
		}
		h = fnv(h, ^uint64(0))
	}
	return h
}
