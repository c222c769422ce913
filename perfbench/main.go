// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the public serving path (tuffy.Open, Engine.Ground, tuffy.Serve,
// Server.InferMAP / InferMarginal / UpdateEvidence) from a closed loop of
// one in-process client over generated MLN inputs rendered as text, checks
// every answer it can against an independent computation, and prints each
// metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ie-live --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --spec > BENCHMARK.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics with --trace 0, the per-layer
// ones with --trace 1. The line before it holds the detail: host, settings,
// tail percentiles with their sample counts, and the result in full.
//
// Left out: the distributed tier (internal/wire, internal/remote) needs
// worker processes beyond the two cores the benchmark is sized for, and
// cmd/tuffyd's HTTP/JSON shell is a thin wrapper over tuffy.Serve, which
// the benchmark drives directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// deadline bounds one run, which must exit within 180 seconds.
const deadline = 170 * time.Second

// outDir holds the runs' data directories, span files and results. It is
// relative to the working directory, the repository root.
var outDir = filepath.Join(".bench_build", "perfbench-out")

func main() {
	workload := flag.String("workload", "", "workload name, or \"all\" to run each in its own process")
	seed := flag.Int64("seed", 1, "seed for the request streams")
	seconds := flag.Float64("seconds", runSeconds, "length of the closed-loop MAP window")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric tables and exit")
	flag.Parse()

	if *spec {
		b, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.Name, deadline)
		os.Exit(3)
	})
	defer timer.Stop()
	// The traced run's overhead is the gap between its end-to-end numbers
	// and those of an untraced run of the same workload and seed, made
	// first in a fresh process.
	var untraced map[string]metricValue
	if *trace == 1 {
		var err error
		if untraced, err = runUntraced(w.Name, *seed, *seconds); err != nil {
			fatal(fmt.Errorf("%s: untraced run: %w", w.Name, err))
		}
	}

	res, err := run(context.Background(), runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir,
	})
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	metrics := res.EndToEnd
	specs := endToEnd
	if *trace == 1 {
		metrics, specs = res.PerLayer, perLayer
		gaps := map[string]float64{}
		for _, s := range endToEnd {
			gaps[s.Name] = 100 * (ratio(res.EndToEnd[s.Name], untraced[s.Name].Value) - 1)
		}
		metrics["trace.overhead_pct"] = gaps["map_p50_ms"]
		res.Detail["trace_overhead_pct"] = gaps
	}
	printTable(w.Name, *trace == 1, specs, metrics)
	// error_rate is printed, not a BENCHMARK.json metric: a correct run
	// reads exactly 0, and the result line carries attempted and failed.
	fmt.Printf("%-34s %14.4f %-6s (lower is better; %d of %d operations failed)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	fmt.Printf("%-34s %14.4f %-6s (measured; the workload's assumed mix is %.2f)\n",
		"map_repeat_share", res.RepeatShare, "ratio", w.RepeatShare)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED CHECK: %s\n", w.Name, p)
	}
	detail := map[string]any{"workload": w.Name, "trace": *trace, "end_to_end": res.EndToEnd,
		"per_layer": res.PerLayer, "detail": res.Detail, "problems": res.Problems}
	line, err := json.Marshal(detail)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.Name, *seed, *trace))
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		fatal(err)
	}

	final, err := json.Marshal(resultLine(res, specs, metrics))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(final))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultLine(res *runResult, specs []metricSpec, metrics map[string]float64) result {
	out := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		out.Metrics[s.Name] = metricValue{Value: metrics[s.Name], Unit: s.Unit}
	}
	return out
}

func printTable(name string, traced bool, specs []metricSpec, metrics map[string]float64) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s (%s)\n", name, kind)
	for _, s := range specs {
		note := fmt.Sprintf("%s is better", s.Better)
		if s.Moves != "" {
			note += ", should move " + s.Moves
		} else {
			note += fmt.Sprintf(", bound %.0f%%", 100*s.Bound)
		}
		fmt.Printf("%-34s %14.4f %-6s (%s)\n", s.Name, metrics[s.Name], s.Unit, note)
	}
}

// runUntraced runs the workload untraced in a fresh process of this binary
// and returns its end-to-end metrics.
func runUntraced(name string, seed int64, seconds float64) (map[string]metricValue, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline/2)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, err
	}
	if !r.Correct {
		return nil, fmt.Errorf("the untraced run failed its correctness gate")
	}
	return r.Metrics, nil
}

// runAll runs every workload in a fresh process of this binary, so no
// workload inherits another's heap, and prints each one's metrics.
func runAll(seed int64, seconds float64, trace int) int {
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.Name)
	}
	sort.Strings(n)
	return n
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
