package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans derived
// from a duration the engine reports itself (MAPResult.SearchTime,
// UpdateResult.UpdateTime, DurabilityStats.RecoveryTime) are marked so and
// placed at the end of their parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"req"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays only for the nil checks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	layer  string
	start  time.Time
}

func (t *tracer) begin(parent *active, req int64, layer, name string) *active {
	a := &active{t: t, req: req, name: name, layer: layer, start: time.Now()}
	if t == nil {
		return a
	}
	if parent != nil {
		a.parent = parent.id
		if req == 0 {
			a.req = parent.req
		}
	}
	t.mu.Lock()
	t.next++
	a.id = t.next
	t.mu.Unlock()
	return a
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	now := time.Now()
	if a.t != nil {
		a.t.add(span{ID: a.id, Parent: a.parent, Request: a.req, Name: a.name, Layer: a.layer,
			StartUS: a.t.us(a.start), EndUS: a.t.us(now)})
	}
	return now.Sub(a.start)
}

// derived records a child of a closed span covering the last d of it.
func (a *active) derived(layer, name string, end time.Time, d time.Duration) {
	t := a.t
	if t == nil || d <= 0 {
		return
	}
	if start := end.Add(-d); start.Before(a.start) {
		d = end.Sub(a.start)
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.add(span{ID: id, Parent: a.id, Request: a.req, Name: name, Layer: layer,
		StartUS: t.us(end.Add(-d)), EndUS: t.us(end), Derived: true})
}

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		covered := coveredUS(s, children[s.ID])
		out[s.Layer] += float64(s.EndUS-s.StartUS-covered) / 1000
	}
	return out
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent.
func coveredUS(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartUS, p.StartUS), min(k.EndUS, p.EndUS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
