package main

import (
	"encoding/json"

	"tuffy"
	"tuffy/internal/datagen"
	"tuffy/internal/db"
)

// metricSpec is one metric the benchmark reports. End-to-end metrics carry
// the regression bound a later change may not exceed; per-layer metrics
// instead name the end-to-end metric they are expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string // per-layer only: the end-to-end metric it should move
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, so each run's result carries the full set.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "map_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "map_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "marginal_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "update_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "indb_map_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "map_cost", Unit: "cost", Better: "lower", Bound: 0.02},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// storagePhases are the phases the buffer-pool and disk counters are
// split by.
var storagePhases = []string{"setup", "query", "update", "indb"}

// perLayer are the traced run's metrics, grouped by module. Counters are
// deltas over the phase named in the metric, read from the counters the
// layer already exports; times come from spans around the benchmark's own
// calls into the layer.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{Name: "mln.parse_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},

		{Name: "grounding.build_tables_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
		{Name: "grounding.ground_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
		{Name: "grounding.join_rows", Unit: "count", Better: "lower", Moves: "setup_s"},
		{Name: "grounding.raw_groundings", Unit: "count", Better: "lower", Moves: "setup_s"},
		{Name: "grounding.clauses", Unit: "count", Better: "lower", Moves: "heap_live_mb"},
		{Name: "grounding.clauses_per_raw", Unit: "ratio", Better: "higher", Moves: "setup_s"},
		{Name: "grounding.alloc_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},
		{Name: "grounding.mallocs", Unit: "count", Better: "lower", Moves: "setup_s"},
	}
	for _, ph := range storagePhases {
		moves := "setup_s"
		switch ph {
		case "query":
			moves = "map_p50_ms"
		case "update":
			moves = "update_p50_ms"
		case "indb":
			moves = "indb_map_p50_ms"
		}
		m = append(m,
			metricSpec{Name: "storage." + ph + ".pool_hits", Unit: "count", Better: "higher", Moves: moves},
			metricSpec{Name: "storage." + ph + ".pool_misses", Unit: "count", Better: "lower", Moves: moves},
			metricSpec{Name: "storage." + ph + ".pool_hit_rate", Unit: "ratio", Better: "higher", Moves: moves},
			metricSpec{Name: "storage." + ph + ".disk_reads", Unit: "count", Better: "lower", Moves: moves},
			metricSpec{Name: "storage." + ph + ".disk_writes", Unit: "count", Better: "lower", Moves: moves},
		)
	}
	m = append(m, []metricSpec{
		{Name: "mrf.atoms", Unit: "count", Better: "lower", Moves: "heap_live_mb"},
		{Name: "mrf.clauses", Unit: "count", Better: "lower", Moves: "heap_live_mb"},
		{Name: "mrf.components", Unit: "count", Better: "higher", Moves: "heap_live_mb"},
		{Name: "mrf.search_bytes", Unit: "bytes", Better: "lower", Moves: "heap_live_mb"},

		{Name: "partition.ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
		{Name: "partition.parts", Unit: "count", Better: "lower", Moves: "map_p50_ms"},
		{Name: "partition.cut_clauses", Unit: "count", Better: "lower", Moves: "map_p50_ms"},

		{Name: "search.map_search_ms", Unit: "ms", Better: "lower", Moves: "map_p50_ms"},
		{Name: "search.flips", Unit: "count", Better: "higher", Moves: "map_cost"},
		{Name: "search.flips_per_s", Unit: "1/s", Better: "higher", Moves: "query_qps"},
		{Name: "search.memo_hit_rate", Unit: "ratio", Better: "higher", Moves: "map_p50_ms"},
		{Name: "search.marginal_ms", Unit: "ms", Better: "lower", Moves: "marginal_p50_ms"},

		{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "map_tail_ms"},
		{Name: "server.exec_ms", Unit: "ms", Better: "lower", Moves: "map_p50_ms"},
		{Name: "server.cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "query_qps"},
		{Name: "server.batched", Unit: "count", Better: "higher", Moves: "query_qps"},
		{Name: "server.rejected", Unit: "count", Better: "lower", Moves: "map_tail_ms"},

		{Name: "update.apply_ms", Unit: "ms", Better: "lower", Moves: "update_p50_ms"},
		{Name: "update.clauses_rerun", Unit: "count", Better: "lower", Moves: "update_p50_ms"},
		{Name: "update.raws_changed", Unit: "count", Better: "lower", Moves: "update_p50_ms"},
		{Name: "update.touched_atoms", Unit: "count", Better: "lower", Moves: "update_p50_ms"},
		{Name: "update.components_reused", Unit: "count", Better: "higher", Moves: "update_p50_ms"},
		{Name: "update.parts_reused", Unit: "count", Better: "higher", Moves: "update_p50_ms"},

		{Name: "wal.appended_bytes", Unit: "bytes", Better: "lower", Moves: "update_tail_ms"},
		{Name: "wal.syncs", Unit: "count", Better: "lower", Moves: "update_p50_ms"},
		{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "update_tail_ms"},
		{Name: "persist.checkpoints", Unit: "count", Better: "lower", Moves: "update_tail_ms"},
		{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower", Moves: "restart_s"},
		{Name: "persist.recovery_ms", Unit: "ms", Better: "lower", Moves: "restart_s"},
		{Name: "persist.close_ms", Unit: "ms", Better: "lower", Moves: "restart_s"},
	}...)
	for _, l := range layers {
		m = append(m, metricSpec{Name: "self." + l + "_ms", Unit: "ms", Better: "lower", Moves: layerMoves[l]})
	}
	return append(m,
		metricSpec{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "map_p50_ms"},
		metricSpec{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "map_p50_ms"},
	)
}()

// layers are the modules spans are attributed to for self times.
var layers = []string{"mln", "grounding", "storage", "mrf", "partition", "search", "server", "update", "persist"}

var layerMoves = map[string]string{
	"mln": "setup_s", "grounding": "setup_s", "storage": "setup_s",
	"mrf": "heap_live_mb", "partition": "setup_s", "search": "map_p50_ms",
	"server": "map_tail_ms", "update": "update_p50_ms", "persist": "restart_s",
}

// workload is one traffic mix over one generated dataset. The dataset and
// its update stream come from a fixed data seed, so the final evidence (and
// with it map_cost) is the same in every run; the run's --seed drives the
// request streams.
type workload struct {
	Name string
	Why  string
	// Layers says which layers the workload exercises and which it
	// bypasses; it is printed with every result.
	Layers string

	DataSeed int64
	dataset  func(tiny bool) *datagen.Dataset
	// UpdatePred is the predicate the update stream edits; OpsPerUpdate is
	// the size of one delta.
	UpdatePred   string
	OpsPerUpdate int

	Engine  tuffy.EngineConfig // DataDir is filled in per run when Durable
	Durable bool

	MapFlips int64
	// RepeatShare is the share of MAP requests that repeat an earlier seed.
	// No request trace backs it; it is an assumed mix.
	RepeatShare float64

	// Setups is the number of cold setups at the start of a run. An
	// in-memory workload's restarts are setups too (see run).
	Setups int
	// Updates is the number of deltas the rounds' update slices apply. On
	// a DataDir each restart commits one more delta before its Close.
	Updates         int
	Marginals       int
	MarginalSamples int
	InDBQueries     int
	InDBFlips       int64
	RefQueries      int
	Restarts        int
}

// scaled shrinks the fixed-count phases for the tiny configuration the
// benchmark's own test runs.
func (w workload) scaled(tiny bool) workload {
	if !tiny {
		return w
	}
	w.Setups, w.Updates, w.Marginals, w.InDBQueries, w.RefQueries, w.Restarts = 2, 4, 2, 2, 2, 2
	w.MapFlips /= 10
	w.InDBFlips = 20
	if w.Engine.MemoryBudgetBytes > 0 {
		w.Engine.MemoryBudgetBytes /= 10
	}
	return w
}

var workloads = []workload{
	{
		Name: "ie-live",
		Why: "IE chains on a DataDir, an assumed 30% share of repeated MAP seeds, a live delta stream: row-heavy grounding, " +
			"incremental updates, memo, result cache, WAL, snapshots; no partition cuts",
		Layers: "exercises mln, grounding (many rows), mrf (800 tiny components), search memo and per-component MC-SAT, " +
			"server cache, update, wal/persist (a checkpoint on every Close); bypasses partition cuts and big-component WalkSAT. " +
			"The 0.3 repeat share is an assumption, not taken from a request trace: it moves query_qps and " +
			"server.cache_hit_rate; map_p50_ms and map_tail_ms count new seeds only",
		DataSeed: 11,
		dataset: func(tiny bool) *datagen.Dataset {
			if tiny {
				return datagen.IE(datagen.IEConfig{Chains: 60, Seed: 11})
			}
			return datagen.IE(datagen.IEConfig{Chains: 800, Seed: 11})
		},
		UpdatePred: "hint", OpsPerUpdate: 4,
		Durable:         true,
		MapFlips:        20_000,
		RepeatShare:     0.3,
		Setups:          5,
		Updates:         256, // 32 a round: two cadence checkpoints each, so the tail falls among their stalls
		Marginals:       12,
		MarginalSamples: 5,
		InDBQueries:     16,
		InDBFlips:       50,
		RefQueries:      4,
		Restarts:        25,
	},
	{
		Name: "er-dense",
		Why: "ER: one dense component from a cubic rule, in memory, 2 grounding workers, distinct seeds: hash-range grounding, " +
			"canonical assembly, WalkSAT/MC-SAT loops; no memo, cache or WAL",
		Layers: "exercises grounding (dominant clause split by hash range), mrf assembly of ~6x10^4 clauses, search flip loop and MC-SAT; " +
			"bypasses memo, result cache, wal/persist and partitioning",
		DataSeed: 12,
		dataset: func(tiny bool) *datagen.Dataset {
			if tiny {
				return datagen.ER(datagen.ERConfig{Records: 14, Seed: 12})
			}
			return datagen.ER(datagen.ERConfig{Records: 40, Seed: 12})
		},
		UpdatePred: "simHigh", OpsPerUpdate: 2,
		Engine:          tuffy.EngineConfig{GroundWorkers: 2},
		MapFlips:        20_000,
		Setups:          1,
		Updates:         48,
		Marginals:       16,
		MarginalSamples: 5,
		InDBQueries:     16,
		InDBFlips:       20,
		RefQueries:      4,
		Restarts:        15,
	},
	{
		Name: "rc-cut",
		Why: "RC with a memory budget that cuts components and a pool smaller than the tables: Algorithm 3, Gauss-Seidel, " +
			"partition repair, buffer-pool misses; no memo or WAL",
		Layers: "exercises partition (Algorithm 3 cuts), search Gauss-Seidel and partitioned MC-SAT, update partition repair, " +
			"storage under pool misses and in-DB search; bypasses memo and wal/persist",
		DataSeed: 13,
		dataset: func(tiny bool) *datagen.Dataset {
			if tiny {
				return datagen.RC(datagen.RCConfig{Papers: 80, Authors: 40, Clusters: 4, Seed: 13})
			}
			return datagen.RC(datagen.RCConfig{Papers: 1200, Authors: 500, Clusters: 20, Seed: 13})
		},
		UpdatePred: "refers", OpsPerUpdate: 4,
		Engine:          tuffy.EngineConfig{MemoryBudgetBytes: 60_000, DB: db.Config{BufferPoolPages: 32}},
		MapFlips:        3_000,
		Setups:          1,
		Updates:         32,
		Marginals:       10,
		MarginalSamples: 20,
		InDBQueries:     8,
		InDBFlips:       50,
		RefQueries:      4,
		Restarts:        7,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runSeconds is the default length of a run's closed-loop MAP window, which
// BENCHMARK.json records as run_seconds. The window is split into rounds,
// with the probes and the update stream spread between them.
const (
	runSeconds = 10
	rounds     = 16
)

// benchmarkFile is the layout of BENCHMARK.json at the repository root. It
// is generated from the tables above (perfbench --spec) and checked against
// them by the package test.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specEndToEnd `json:"end_to_end"`
	PerLayer   []specPerLayer `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, specWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, specEndToEnd{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, specPerLayer{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
