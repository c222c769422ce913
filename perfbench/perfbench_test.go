package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root must be exactly what the metric
// tables generate, and within the limits its readers enforce.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --spec > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(want))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of limits", m)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist (unit s, lower) with the largest bound")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v out of limits", m)
		}
		if _, ok := findEndToEnd(m.Moves); !ok {
			t.Errorf("per-layer metric %s moves unknown end-to-end metric %q", m.Name, m.Moves)
		}
	}
}

func findEndToEnd(name string) (metricSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// A tiny run of every workload passes the correctness gate and emits every
// metric with its unit: end-to-end metrics untraced (never zero), per-layer
// metrics traced, with a span file written.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), runConfig{w: w, seed: 3, seconds: 0.3, tiny: true, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d/%d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			specs, metrics := endToEnd, res.EndToEnd
			if traced {
				specs, metrics = perLayer, res.PerLayer
				if _, err := os.Stat(res.Detail["spans_file"].(string)); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
				if metrics["trace.spans"] == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
			line := resultLine(res, specs, metrics)
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s: %d metrics emitted, want %d", w.Name, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := metrics[s.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, s.Name)
					continue
				}
				if line.Metrics[s.Name].Unit != s.Unit || s.Better == "" {
					t.Errorf("%s: metric %s emitted without unit or direction", w.Name, s.Name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, s.Name, v)
				}
			}
		}
	}
}

// A corrupted copy of one served answer must fail the correctness gate.
func TestCorruptedAnswerFailsGate(t *testing.T) {
	w, _ := findWorkload("rc-cut")
	res, err := run(context.Background(), runConfig{w: w, seed: 5, seconds: 0.2, tiny: true, outDir: t.TempDir(), corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("gate passed a corrupted answer: correct=%v failed=%d", res.Correct, res.Failed)
	}
	found := false
	for _, p := range res.Problems {
		found = found || strings.Contains(p, "differs from a fresh engine's")
	}
	if !found {
		t.Errorf("problems do not name the corrupted answer: %v", res.Problems)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	ts := tail(xs)
	if ts.Value != 90 || ts.Beyond != 10 || ts.Percentile != 90 {
		t.Errorf("tail of 1..100 = %+v, want value 90 at p90 with 10 beyond", ts)
	}
	if m := median(xs); m != 50.5 {
		t.Errorf("median = %v", m)
	}
}
