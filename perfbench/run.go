package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tuffy"
	"tuffy/internal/db"
	"tuffy/internal/db/storage"
	"tuffy/internal/db/tuple"
	"tuffy/internal/grounding"
	"tuffy/internal/mln"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
	"tuffy/internal/server"
)

// clients is the closed loop's client count. One client leaves the second
// core of the 2-CPU host the benchmark is sized for to the Go runtime (GC,
// server goroutines): with two, two searches share the two cores with it,
// and latencies time the scheduler as much as the search.
const clients = 1

// serverSlots is the server's execution slots, one per core.
const serverSlots = 2

// Seed ranges: reference MAP queries use 1..RefQueries, each closed-loop
// slice's warm-up query warmSeed, the marginal and in-database probes start
// at probeSeedBase, and the closed loop's request streams draw from
// streamSeedBase up.
const (
	warmSeed       = 999
	probeSeedBase  = 1000
	streamSeedBase = 1 << 20
)

type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	outDir  string
	// corrupt flips one bit of one served reference answer before the
	// correctness gate compares it; the package test uses it to prove the
	// gate fails.
	corrupt bool
}

type runResult struct {
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Detail    map[string]any
	Problems  []string
	// RepeatShare is the measured share of closed-loop MAP requests that
	// repeated a seed.
	RepeatShare float64
}

// live is one serving stack: a parsed program, an Engine and a Server.
type live struct {
	prog *mln.Program
	eng  *tuffy.Engine
	srv  *tuffy.Server
}

func (l *live) close() (closeTime time.Duration, err error) {
	if err := l.srv.Close(); err != nil {
		return 0, err
	}
	start := time.Now()
	err = l.eng.Close()
	return time.Since(start), err
}

func serverConfig() tuffy.ServerConfig { return tuffy.ServerConfig{MaxInFlight: serverSlots} }

// storageCounters are the buffer pool's and disk's cumulative counters.
type storageCounters struct {
	pool storage.PoolStats
	disk storage.DiskStats
}

func readStorage(e *tuffy.Engine) storageCounters {
	return storageCounters{pool: e.DB().Pool().Stats(), disk: e.DB().Disk().Stats()}
}

func (b storageCounters) minus(a storageCounters) storageCounters {
	return storageCounters{
		pool: storage.PoolStats{Hits: b.pool.Hits - a.pool.Hits, Misses: b.pool.Misses - a.pool.Misses},
		disk: storage.DiskStats{Reads: b.disk.Reads - a.disk.Reads, Writes: b.disk.Writes - a.disk.Writes},
	}
}

func (b storageCounters) plus(a storageCounters) storageCounters {
	return storageCounters{
		pool: storage.PoolStats{Hits: b.pool.Hits + a.pool.Hits, Misses: b.pool.Misses + a.pool.Misses},
		disk: storage.DiskStats{Reads: b.disk.Reads + a.disk.Reads, Writes: b.disk.Writes + a.disk.Writes},
	}
}

// metrics stores one phase's counter deltas under the phase's names.
func (b storageCounters) metrics(into map[string]float64, phase string) {
	hits, misses := float64(b.pool.Hits), float64(b.pool.Misses)
	p := "storage." + phase + "."
	into[p+"pool_hits"] = hits
	into[p+"pool_misses"] = misses
	into[p+"pool_hit_rate"] = ratio(hits, hits+misses)
	into[p+"disk_reads"] = float64(b.disk.Reads)
	into[p+"disk_writes"] = float64(b.disk.Writes)
}

// run executes one workload: repeated setups, the measured rounds
// (restarts, a closed-loop MAP window of rc.seconds in all, the update
// stream, marginal and in-database probes), and the correctness gate on the
// final epoch.
func run(ctx context.Context, rc runConfig) (*runResult, error) {
	w := rc.w.scaled(rc.tiny)
	// wall is where the run's time went, by phase, for the detail line.
	wall := map[string]float64{}
	mark := time.Now()
	lap := func(phase string) {
		now := time.Now()
		wall[phase] += now.Sub(mark).Seconds()
		mark = now
	}
	in, err := makeInputs(w, rc.tiny)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	hostStart := probeHost(rc.outDir)
	lap("inputs")
	dataRoot := filepath.Join(rc.outDir, fmt.Sprintf("data-%s-%d-%d", w.Name, rc.seed, os.Getpid()))
	defer os.RemoveAll(dataRoot)

	g := &gate{}
	e2e := map[string]float64{}
	pl := map[string]float64{}
	detail := map[string]any{}
	var rejectedTotal int64
	closeLive := func(l *live) (time.Duration, error) {
		m := l.srv.Metrics()
		rejectedTotal += m.RejectedQueue + m.RejectedBudget + m.Expired
		return l.close()
	}
	var reqSeq atomic.Int64
	nextReq := func() int64 { return reqSeq.Add(1) }

	cfg := w.Engine
	if w.Durable {
		cfg.DataDir = filepath.Join(dataRoot, "engine")
	}
	refOpts := func(i int) tuffy.InferOptions {
		return tuffy.InferOptions{Seed: int64(i + 1), MaxFlips: w.MapFlips}
	}

	// ---- setup: parse, Open, Ground, Serve, first answered MAP query ----
	// Each setup starts from a collected heap with the resident-set
	// high-water mark reset, so peak_rss_mb and heap_live_mb are that
	// setup's own; all three metrics are medians over the setups. An
	// in-memory workload's restarts reopen from evidence text, so each of
	// their reopens is a setup too and adds its samples.
	var setupTimes, heapMB, rssMB []float64
	setupFrom := func(program, evidence string, c tuffy.EngineConfig) (*live, time.Duration, *tuffy.MAPResult, error) {
		runtime.GC()
		debug.FreeOSMemory()
		detail["peak_rss_reset"] = resetPeakRSS()
		l, d, first, err := setup(ctx, tr, nextReq(), program, evidence, c, refOpts(0))
		if err != nil {
			return nil, 0, nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		rssMB = append(rssMB, peakRSSMB())
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heapMB = append(heapMB, float64(mem.HeapAlloc)/(1<<20))
		return l, d, first, nil
	}
	var cur *live
	var first0 *tuffy.MAPResult // the first answer on epoch 0
	for i := 0; i < w.Setups; i++ {
		c := cfg
		if w.Durable {
			c.DataDir = filepath.Join(dataRoot, fmt.Sprintf("setup%d", i))
		}
		l, _, first, err := setupFrom(in.program, in.evidence, c)
		if !g.op("setup", err) {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < w.Setups-1 {
			if _, err := closeLive(l); !g.op("close setup engine", err) {
				return nil, err
			}
			os.RemoveAll(c.DataDir)
			continue
		}
		cur, first0 = l, first
		cfg = c
	}
	readStorage(cur.eng).metrics(pl, "setup")
	epoch0 := cur.eng.Grounded()
	mst := epoch0.MRF.ComputeStats()
	gst := epoch0.Stats
	pl["mrf.atoms"] = float64(mst.NumAtoms)
	pl["mrf.clauses"] = float64(mst.NumClauses)
	pl["mrf.search_bytes"] = float64(mst.SearchBytes)
	pl["grounding.join_rows"] = float64(gst.JoinRowsVisited)
	pl["grounding.raw_groundings"] = float64(gst.NumGroundedRaw)
	pl["grounding.clauses"] = float64(gst.NumClauses)
	pl["grounding.clauses_per_raw"] = ratio(float64(gst.NumClauses), float64(gst.NumGroundedRaw))
	tablePages := pagesOf(cur.eng)
	poolPages := cfg.DB.BufferPoolPages
	if poolPages == 0 {
		poolPages = 4096
	}
	detail["pool_pages"] = poolPages
	detail["table_pages"] = tablePages
	lap("setups")

	// ---- traced run only: the layers below the engine, called directly ----
	if rc.trace {
		if err := directLayers(ctx, tr, g, in, cfg, epoch0.MRF, first0, pl); err != nil {
			return nil, err
		}
		lap("direct_layers")
	}

	// ---- the measured rounds ----
	// Each round is its share of the restarts, a slice of the closed-loop
	// MAP window, the round's share of the update stream, then (on the
	// rounds the schedule picks) one marginal and one in-database probe.
	// Spreading every metric's samples over the whole run keeps a slow
	// stretch of the host from landing on one metric only. The stream is
	// consumed in order; next is the first delta not yet applied.
	deltas, err := parseDeltas(cur.prog, in.deltas)
	if err != nil {
		return nil, err
	}
	next := 0
	// The probes' seeds are fixed, like the reference queries', so every
	// run times the same searches.
	margOpts := func(i int) tuffy.InferOptions {
		return tuffy.InferOptions{Seed: probeSeedBase + int64(i), Samples: w.MarginalSamples}
	}
	indbOpts := func(i int) tuffy.InferOptions {
		return tuffy.InferOptions{Seed: probeSeedBase + int64(i), MaxFlips: w.InDBFlips, Mode: tuffy.InDatabase}
	}
	q := &queryStats{first: map[[2]int64]mapDigest{}}
	u := &updateStats{predIdx: mln.PredIndex(cur.prog)}
	var margLat, indbLat []float64
	phases := map[string]storageCounters{}
	var srvSum server.Metrics
	var memoHits, memoMisses int64
	var walBytes, walSyncs, checkpoints, snapshotBytes int64
	var margFinal, indbFinal any

	// restart closes the serving stack and reopens it up to the first
	// answer. On a DataDir it first commits the stream's next delta, so
	// every Close writes its checkpoint; in memory it reopens from the
	// evidence text at the current point of the stream, which is a setup
	// and counts as one. restart_s counts the Close with the reopen.
	// Between the two the closed engine's memory is collected, untimed, so
	// each reopen starts from a heap like a setup's. The first answer must
	// be the one served before Close.
	var restartTimes, closeTimes, recoveryTimes []float64
	restart := func() error {
		if w.Durable {
			_, err := cur.srv.UpdateEvidence(ctx, deltas[next])
			if !g.op(fmt.Sprintf("update %d", next), err) {
				return err
			}
			next++
		}
		before, err := cur.srv.InferMAP(ctx, tuffy.Request{Options: refOpts(0)})
		if !g.op("MAP before Close", err) {
			return err
		}
		runtime.GC() // keep earlier garbage from being charged to the restart
		t0 := time.Now()
		a := tr.begin(nil, nextReq(), "persist", "Close")
		ct, err := closeLive(cur)
		a.end()
		closed := time.Since(t0)
		if !g.op("close", err) {
			return err
		}
		closeTimes = append(closeTimes, ms(ct))
		cur = nil
		var l *live
		var d time.Duration
		var first *tuffy.MAPResult
		if w.Durable {
			// The DataDir holds the updates; Open wants the base evidence.
			runtime.GC()
			debug.FreeOSMemory()
			l, d, first, err = setup(ctx, tr, nextReq(), in.program, in.evidence, cfg, refOpts(0))
		} else {
			l, d, first, err = setupFrom(in.program, in.evidenceAt[next], cfg)
		}
		if !g.op("restart", err) {
			return err
		}
		cur = l
		restartTimes = append(restartTimes, (closed + d).Seconds())
		g.check(digestMAP(first) == digestMAP(before), "first MAP after restart %d differs from before Close", len(restartTimes))
		if w.Durable {
			ds := cur.eng.DurabilityStats()
			g.check(ds.WarmStart, "reopen of the DataDir was not a warm start")
			recoveryTimes = append(recoveryTimes, ms(ds.RecoveryTime))
		}
		return nil
	}

	for r := 0; r < rounds; r++ {
		for k := share(r, w.Restarts); k > 0; k-- {
			if err := restart(); err != nil {
				return nil, err
			}
		}
		lap("restarts")
		s0, m0, memo0 := readStorage(cur.eng), cur.srv.Metrics(), cur.eng.MemoStats()
		queryWindow(ctx, tr, g, cur, w, rc.seed*rounds+int64(r), rc.seconds/rounds, nextReq, q)
		m1, memo1 := cur.srv.Metrics(), cur.eng.MemoStats()
		srvSum.QueueWait += m1.QueueWait - m0.QueueWait
		srvSum.Latency += m1.Latency - m0.Latency
		srvSum.Completed += m1.Completed - m0.Completed
		srvSum.Batched += m1.Batched - m0.Batched
		srvSum.CacheHits += m1.CacheHits - m0.CacheHits
		srvSum.CacheMisses += m1.CacheMisses - m0.CacheMisses
		memoHits += memo1.Hits - memo0.Hits
		memoMisses += memo1.Misses - memo0.Misses
		s1 := readStorage(cur.eng)
		phases["query"] = phases["query"].plus(s1.minus(s0))
		lap("map_window")

		n := share(r, w.Updates)
		d0 := cur.eng.DurabilityStats()
		updateSlice(ctx, tr, g, cur, deltas[next:next+n], next, nextReq, u)
		next += n
		d1 := cur.eng.DurabilityStats()
		walBytes += d1.WALAppendedBytes - d0.WALAppendedBytes
		walSyncs += d1.WALSyncs - d0.WALSyncs
		checkpoints += d1.Checkpoints - d0.Checkpoints
		snapshotBytes = d1.SnapshotBytes
		s2 := readStorage(cur.eng)
		phases["update"] = phases["update"].plus(s2.minus(s1))
		lap("updates")

		// The last round's probes run on the final epoch; the gate checks
		// their answers.
		if i, ok := probeAt(r, w.Marginals); ok {
			lat, ans := probe(ctx, tr, g, nextReq, "Server.InferMarginal", func() (any, error) {
				return cur.srv.InferMarginal(ctx, tuffy.Request{Options: margOpts(i)})
			})
			margLat = append(margLat, lat...)
			margFinal = ans
		}
		s3 := readStorage(cur.eng)
		phases["query"] = phases["query"].plus(s3.minus(s2))
		if i, ok := probeAt(r, w.InDBQueries); ok {
			lat, ans := probe(ctx, tr, g, nextReq, "Server.InferMAP(InDatabase)", func() (any, error) {
				return cur.srv.InferMAP(ctx, tuffy.Request{Options: indbOpts(i)})
			})
			indbLat = append(indbLat, lat...)
			indbFinal = ans
		}
		phases["indb"] = phases["indb"].plus(readStorage(cur.eng).minus(s3))
		lap("probes")
	}
	for _, ph := range []string{"query", "update", "indb"} {
		phases[ph].metrics(pl, ph)
	}

	e2e["map_p50_ms"] = median(q.lat)
	mt := tail(q.lat)
	e2e["map_tail_ms"] = mt.Value
	detail["map_tail"] = mt
	answered := len(q.lat) + len(q.repeatLat)
	e2e["query_qps"] = float64(answered) / q.elapsed.Seconds()
	repeatShare := ratio(float64(len(q.repeatLat)), float64(answered))
	detail["map_repeat_share"] = repeatShare
	detail["map_repeat_p50_ms"] = median(q.repeatLat)
	pl["search.map_search_ms"] = median(q.searchMS)
	pl["search.flips"] = float64(q.flips)
	pl["search.flips_per_s"] = ratio(float64(q.flips), q.searchTotal.Seconds())
	pl["search.memo_hit_rate"] = ratio(float64(memoHits), float64(memoHits+memoMisses))
	pl["server.queue_wait_ms"] = ratio(ms(srvSum.QueueWait), float64(srvSum.Completed+srvSum.Batched))
	pl["server.exec_ms"] = ratio(ms(srvSum.Latency), float64(srvSum.Completed))
	pl["server.cache_hit_rate"] = ratio(float64(srvSum.CacheHits), float64(srvSum.CacheHits+srvSum.CacheMisses))
	pl["server.batched"] = float64(srvSum.Batched)
	// main fills this in from an untraced run on the same seed.
	pl["trace.overhead_pct"] = 0
	detail["map_queries"] = answered
	detail["map_new_seed_queries"] = len(q.lat)
	detail["map_distinct_answers"] = len(q.searchMS)

	e2e["update_p50_ms"] = median(u.lat)
	ut := tail(u.lat)
	e2e["update_tail_ms"] = ut.Value
	detail["update_tail"] = ut
	pl["update.apply_ms"] = median(u.applyMS)
	pl["update.clauses_rerun"] = float64(u.clausesRerun)
	pl["update.raws_changed"] = float64(u.rawsChanged)
	pl["update.touched_atoms"] = float64(u.touched)
	pl["update.components_reused"] = float64(u.compsReused)
	pl["update.parts_reused"] = float64(u.partsReused)
	pl["wal.appended_bytes"] = float64(walBytes)
	pl["wal.syncs"] = float64(walSyncs)
	pl["wal.bytes_per_user_byte"] = ratio(float64(walBytes), float64(u.userBytes))
	pl["persist.checkpoints"] = float64(checkpoints)
	pl["persist.snapshot_bytes"] = float64(snapshotBytes)
	detail["delta_encoded_bytes"] = u.userBytes

	e2e["setup_s"] = median(setupTimes)
	e2e["peak_rss_mb"] = median(rssMB)
	e2e["heap_live_mb"] = median(heapMB)
	detail["setup_s_samples"] = setupTimes
	detail["peak_rss_mb_samples"] = rssMB
	e2e["restart_s"] = median(restartTimes)
	detail["restart_s_samples"] = restartTimes
	pl["persist.close_ms"] = median(closeTimes)
	pl["persist.recovery_ms"] = median(recoveryTimes)

	e2e["marginal_p50_ms"] = median(margLat)
	e2e["indb_map_p50_ms"] = median(indbLat)
	detail["marginal_latencies_ms"] = margLat
	detail["indb_latencies_ms"] = indbLat
	detail["table_pages_with_clause_table"] = pagesOf(cur.eng)

	if rc.trace {
		// The search layer without the server in front: a direct Engine
		// marginal, the query the last probe served.
		a := tr.begin(nil, nextReq(), "search", "Engine.InferMarginal")
		r, err := cur.eng.InferMarginal(ctx, margOpts(w.Marginals-1))
		pl["search.marginal_ms"] = ms(a.end())
		if g.op("direct marginal", err) && margFinal != nil {
			g.check(digestMarginal(r) == digestMarginal(margFinal.(*tuffy.MarginalResult)),
				"direct marginal differs from the served one")
		}
	}

	// ---- correctness gate: served answers vs a freshly grounded engine ----
	// The last round ends on the final epoch.
	var refServed []*tuffy.MAPResult
	mapCost := 0.0
	for i := 0; i < w.RefQueries; i++ {
		r, err := cur.srv.InferMAP(ctx, tuffy.Request{Options: refOpts(i)})
		if !g.op("reference MAP", err) {
			return nil, err
		}
		refServed = append(refServed, r)
		mapCost += r.Cost
	}
	e2e["map_cost"] = mapCost
	if rc.corrupt && len(refServed) > 0 && len(refServed[0].State) > 1 {
		bad := *refServed[0]
		bad.State = append([]bool(nil), bad.State...)
		bad.State[1] = !bad.State[1]
		refServed[0] = &bad
	}
	if err := freshGate(ctx, g, in, w.Engine, refServed, refOpts, margFinal, margOpts(w.Marginals-1), indbFinal, indbOpts(w.InDBQueries-1)); err != nil {
		return nil, err
	}
	if _, err := closeLive(cur); !g.op("final close", err) {
		return nil, err
	}
	lap("gate")

	self := tr.selfTimes()
	for _, l := range layers {
		pl["self."+l+"_ms"] = self[l]
	}
	pl["trace.spans"] = float64(tr.count())
	if rc.trace {
		p := filepath.Join(rc.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, rc.seed))
		if err := tr.write(p); err != nil {
			return nil, err
		}
		detail["spans_file"] = p
	}
	// The final server is a restarted one; rejections are counted on every
	// server as operations that failed.
	pl["server.rejected"] = float64(rejectedTotal)

	detail["host"] = hostInfo()
	detail["wall_seconds"] = wall
	detail["host_drift"] = map[string]hostProbe{"start": hostStart, "end": probeHost(rc.outDir)}
	detail["settings"] = map[string]any{
		"clients": clients, "server_slots": serverSlots, "workload_seed": rc.seed, "data_seed": w.DataSeed,
		"run_seconds": rc.seconds, "tiny": rc.tiny, "durable": w.Durable,
		"flush_policy":        flushPolicy(w),
		"memory_budget_bytes": w.Engine.MemoryBudgetBytes, "ground_workers": max(1, w.Engine.GroundWorkers),
		"map_flips": w.MapFlips, "repeat_share": w.RepeatShare, "marginal_samples": w.MarginalSamples,
		"indb_flips": w.InDBFlips, "setups": w.Setups, "updates": w.Updates, "ops_per_update": w.OpsPerUpdate,
		"marginals": w.Marginals, "indb_queries": w.InDBQueries, "ref_queries": w.RefQueries, "restarts": w.Restarts,
		"pool_pages": poolPages, "table_pages": tablePages,
		"evidence_tuples": in.evidenceTuples, "domain_constants": in.domainConsts,
		"mrf_atoms": mst.NumAtoms, "mrf_clauses": mst.NumClauses,
	}
	detail["layers"] = w.Layers
	detail["why"] = w.Why

	res := &runResult{
		Attempted:   g.attempted.Load(),
		Failed:      g.failed.Load(),
		EndToEnd:    e2e,
		PerLayer:    pl,
		Detail:      detail,
		Problems:    g.problems,
		RepeatShare: repeatShare,
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// pagesOf counts the pages of every table in the engine's catalog.
func pagesOf(e *tuffy.Engine) int64 {
	n := int64(0)
	for _, name := range e.DB().TableNames() {
		if t, ok := e.DB().Table(name); ok {
			n += t.Blocks()
		}
	}
	return n
}

func flushPolicy(w workload) string {
	if !w.Durable {
		return "in memory, no WAL"
	}
	every := w.Engine.CheckpointEveryUpdates
	if every == 0 {
		every = 16
	}
	return fmt.Sprintf("fsync per committed update, checkpoint every %d updates", every)
}

func hostInfo() map[string]any {
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"gogc": os.Getenv("GOGC"), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// setup parses the program and evidence text, opens and grounds an Engine,
// serves it, and waits for the first MAP answer; it returns the time all
// of that took.
func setup(ctx context.Context, tr *tracer, req int64, program, evidence string, cfg tuffy.EngineConfig, first tuffy.InferOptions) (*live, time.Duration, *tuffy.MAPResult, error) {
	root := tr.begin(nil, req, "engine", "setup")
	a := tr.begin(root, 0, "mln", "tuffy.LoadProgram+LoadEvidence")
	prog, err := tuffy.LoadProgramString(program)
	if err != nil {
		return nil, 0, nil, err
	}
	ev, err := tuffy.LoadEvidenceString(prog, evidence)
	if err != nil {
		return nil, 0, nil, err
	}
	a.end()
	a = tr.begin(root, 0, "persist", "tuffy.Open")
	eng, err := tuffy.Open(prog, ev, cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	end := time.Now()
	a.end()
	if ds := eng.DurabilityStats(); ds.WarmStart {
		a.derived("persist", "recovery", end, ds.RecoveryTime)
	}
	a = tr.begin(root, 0, "grounding", "Engine.Ground")
	if err := eng.Ground(ctx); err != nil {
		eng.Close()
		return nil, 0, nil, err
	}
	a.end()
	a = tr.begin(root, 0, "server", "tuffy.Serve")
	srv, err := tuffy.Serve(serverConfig(), eng)
	if err != nil {
		eng.Close()
		return nil, 0, nil, err
	}
	a.end()
	a = tr.begin(root, 0, "server", "Server.InferMAP(first)")
	r, err := srv.InferMAP(ctx, tuffy.Request{Options: first})
	end = time.Now()
	a.end()
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, 0, nil, err
	}
	a.derived("search", "search", end, r.SearchTime)
	return &live{prog: prog, eng: eng, srv: srv}, root.end(), r, nil
}

// directLayers repeats the engine's setup one layer at a time, timing each
// call: parsing, table building, grounding on a fresh db.Open with the same
// config, connected components and Algorithm 3. The network it grounds
// must fingerprint the same as the engine's, and its partitioning must
// match the one the engine's first answer on that network reports.
func directLayers(ctx context.Context, tr *tracer, g *gate, in *inputs, cfg tuffy.EngineConfig, engineMRF *mrf.MRF,
	first *tuffy.MAPResult, pl map[string]float64) error {
	root := tr.begin(nil, 0, "engine", "direct layers")
	defer root.end()
	a := tr.begin(root, 0, "mln", "mln.ParseProgram+ParseEvidence")
	prog, err := mln.ParseProgramString(in.program)
	if err != nil {
		return err
	}
	ev, err := mln.ParseEvidenceString(prog, in.evidence)
	if err != nil {
		return err
	}
	pl["mln.parse_ms"] = ms(a.end())

	d := db.Open(cfg.DB)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a = tr.begin(root, 0, "grounding", "grounding.BuildTables")
	ts, err := grounding.BuildTables(d, prog, ev)
	if err != nil {
		return err
	}
	pl["grounding.build_tables_ms"] = ms(a.end())
	a = tr.begin(root, 0, "grounding", "grounding.NewIncremental")
	_, res, err := grounding.NewIncremental(ctx, ts, grounding.Options{
		UseClosure: cfg.UseClosure, Workers: max(1, cfg.GroundWorkers), ClauseLevelOnly: cfg.GroundClauseLevelOnly,
	})
	if err != nil {
		return err
	}
	pl["grounding.ground_ms"] = ms(a.end())
	runtime.ReadMemStats(&after)
	pl["grounding.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	pl["grounding.mallocs"] = float64(after.Mallocs - before.Mallocs)
	g.check(fingerprintMRF(res.MRF) == fingerprintMRF(engineMRF),
		"direct-call grounding fingerprint differs from Engine.Ground's")

	a = tr.begin(root, 0, "storage", "HeapFile scans of every predicate table")
	rows := 0
	for _, n := range d.TableNames() {
		t, _ := d.Table(n)
		if err := t.ScanRows(func(storage.RecordID, tuple.Row) error { rows++; return nil }); err != nil {
			return err
		}
	}
	a.end()

	a = tr.begin(root, 0, "mrf", "MRF.Components")
	comps := res.MRF.Components(true)
	a.end()
	pl["mrf.components"] = float64(len(comps))

	beta := 0
	if cfg.MemoryBudgetBytes > 0 {
		beta = int(cfg.MemoryBudgetBytes / 20)
	}
	a = tr.begin(root, 0, "partition", "partition.Algorithm3")
	pt := partition.Algorithm3(res.MRF, beta)
	pl["partition.ms"] = ms(a.end())
	pl["partition.parts"] = float64(len(pt.Parts))
	pl["partition.cut_clauses"] = float64(pt.NumCut())
	g.check(len(pt.Parts) == first.Partitions && pt.NumCut() == first.CutClauses,
		"direct Algorithm 3 gives %d parts and %d cut clauses, the engine's first answer %d and %d",
		len(pt.Parts), pt.NumCut(), first.Partitions, first.CutClauses)
	return nil
}

// queryStats accumulate the closed-loop window's observations over the
// rounds.
type queryStats struct {
	lat         []float64 // ms, answered MAP requests whose seed was new when issued
	repeatLat   []float64 // ms, answered requests that repeated a seed
	searchMS    []float64 // engine-reported search time, first answer per epoch and seed
	searchTotal time.Duration
	flips       int64
	elapsed     time.Duration
	first       map[[2]int64]mapDigest // by epoch and seed
}

// queryWindow runs one slice of the closed loop: each client sends its next
// MAP request when the previous one is answered, until the slice ends. A
// share of requests repeats a seed issued earlier in the slice (a cache
// hit, or with several clients one absorbed into an identical in-flight
// query); their latencies are kept apart from the new seeds', so the
// assumed share moves query_qps but not map_p50_ms or map_tail_ms. Every
// first answer per epoch and seed is checked against a recomputation of its
// cost on the epoch's network, and every repeat against that first answer
// bit for bit.
// No update runs during a slice, so the epoch is fixed.
func queryWindow(ctx context.Context, tr *tracer, g *gate, l *live, w workload, seed int64, seconds float64, nextReq func() int64, st *queryStats) {
	m := l.eng.Grounded().MRF
	var (
		mu     sync.Mutex
		issued []int64
	)
	// One untimed one-flip query first. The first query on an epoch builds
	// the epoch's lazy state (components, Algorithm-3 partitioning);
	// setup_s and restart_s count it, and left in the window it would put
	// each round's first answer among the tail samples.
	runtime.GC()
	if r, err := l.srv.InferMAP(ctx, tuffy.Request{Options: tuffy.InferOptions{Seed: warmSeed, MaxFlips: 1}}); g.op("warm-up MAP", err) {
		g.check(costConsistent(m, r), "warm-up MAP: reported cost %v does not match its state", r.Cost)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for n := 0; time.Now().Before(deadline); n++ {
				mu.Lock()
				var s int64
				repeat := len(issued) > 0 && rng.Float64() < w.RepeatShare
				if repeat {
					s = issued[rng.Intn(len(issued))]
				} else {
					s = streamSeedBase + rng.Int63n(1<<40)
					issued = append(issued, s)
				}
				mu.Unlock()
				a := tr.begin(nil, nextReq(), "server", "Server.InferMAP")
				t0 := time.Now()
				r, err := l.srv.InferMAP(ctx, tuffy.Request{Options: tuffy.InferOptions{Seed: s, MaxFlips: w.MapFlips}})
				end := time.Now()
				a.end()
				lat := ms(end.Sub(t0))
				if !g.op("MAP", err) {
					continue
				}
				dg := digestMAP(r)
				key := [2]int64{int64(r.Epoch), s}
				mu.Lock()
				if repeat {
					st.repeatLat = append(st.repeatLat, lat)
				} else {
					st.lat = append(st.lat, lat)
				}
				prev, seen := st.first[key]
				if !seen {
					st.first[key] = dg
					st.searchMS = append(st.searchMS, ms(r.SearchTime))
					st.searchTotal += r.SearchTime
					st.flips += r.Flips
				}
				mu.Unlock()
				if seen {
					g.check(dg == prev, "repeated MAP seed %d answered differently", s)
					continue
				}
				a.derived("search", "search", end, r.SearchTime)
				g.check(costConsistent(m, r), "MAP seed %d: reported cost %v does not match its state", s, r.Cost)
			}
		}(c)
	}
	wg.Wait()
	st.elapsed += time.Since(start)
}

type updateStats struct {
	predIdx      map[*mln.Predicate]int32
	lat, applyMS []float64
	clausesRerun int
	rawsChanged  int
	touched      int
	compsReused  int
	partsReused  int
	userBytes    int
}

// updateSlice applies the next deltas of the update stream in order
// through the server, one after another with no queries in between, so the
// tail shows the update path's own stalls (checkpoints, repairs). A
// collection first keeps the MAP slice's garbage from being charged to it.
func updateSlice(ctx context.Context, tr *tracer, g *gate, l *live, deltas []mln.Delta, first int, nextReq func() int64, st *updateStats) {
	runtime.GC()
	for i, d := range deltas {
		st.userBytes += len(mln.EncodeDelta(st.predIdx, d))
		a := tr.begin(nil, nextReq(), "server", "Server.UpdateEvidence")
		t0 := time.Now()
		r, err := l.srv.UpdateEvidence(ctx, d)
		end := time.Now()
		a.end()
		if !g.op(fmt.Sprintf("update %d", first+i), err) {
			continue
		}
		a.derived("update", "Engine.UpdateEvidence", end, r.UpdateTime)
		st.lat = append(st.lat, ms(end.Sub(t0)))
		st.applyMS = append(st.applyMS, ms(r.UpdateTime))
		st.clausesRerun += r.ClausesRerun
		st.rawsChanged += r.RawsAdded + r.RawsRemoved
		st.touched += r.TouchedAtoms
		st.compsReused += r.ComponentsReused
		st.partsReused += r.PartsReused
	}
}

// share is round r's part of n operations spread evenly over the rounds;
// the last round always gets one if n > 0.
func share(r, n int) int { return (r+1)*n/rounds - r*n/rounds }

// streamLen is the length of the update stream: the updates, and on a
// DataDir one more delta per restart.
func streamLen(w workload) int {
	if w.Durable {
		return w.Updates + w.Restarts
	}
	return w.Updates
}

// roundStart reports whether an in-memory workload's round starts after
// the stream's first i deltas.
func roundStart(w workload, i int) bool {
	for r := 0; r < rounds; r++ {
		if r*w.Updates/rounds == i {
			return true
		}
	}
	return false
}

// probeAt reports which of n probes, spread evenly over the rounds and
// ending in the last one, runs in round r.
func probeAt(r, n int) (int, bool) {
	for i := 0; i < n; i++ {
		if rounds-1-(n-1-i)*rounds/n == r {
			return i, true
		}
	}
	return 0, false
}

// probe sends one request on an otherwise idle server, after a collection
// so earlier garbage is not charged to it, and returns its latency (none
// if it failed) and answer.
func probe(ctx context.Context, tr *tracer, g *gate, nextReq func() int64, name string, call func() (any, error)) ([]float64, any) {
	runtime.GC()
	a := tr.begin(nil, nextReq(), "server", name)
	t0 := time.Now()
	r, err := call()
	end := time.Now()
	a.end()
	if !g.op(name, err) {
		return nil, nil
	}
	if mr, ok := r.(*tuffy.MAPResult); ok {
		a.derived("search", "search", end, mr.SearchTime)
	}
	return []float64{ms(end.Sub(t0))}, r
}

// freshGate grounds a new in-memory engine from the program and the final
// evidence text and checks that the served answers on the final epoch are
// bit-identical to direct Engine calls with the same options.
func freshGate(ctx context.Context, g *gate, in *inputs, cfg tuffy.EngineConfig, refServed []*tuffy.MAPResult,
	refOpts func(int) tuffy.InferOptions, marg any, margOpts tuffy.InferOptions, indb any, indbOpts tuffy.InferOptions) error {
	prog, err := tuffy.LoadProgramString(in.program)
	if err != nil {
		return err
	}
	ev, err := tuffy.LoadEvidenceString(prog, in.finalEvidence)
	if err != nil {
		return err
	}
	cfg.DataDir = ""
	eng, err := tuffy.Open(prog, ev, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	if !g.op("fresh ground", eng.Ground(ctx)) {
		return nil
	}
	for i, want := range refServed {
		r, err := eng.InferMAP(ctx, refOpts(i))
		if g.op("fresh reference MAP", err) {
			g.check(digestMAP(r) == digestMAP(want), "served reference MAP %d differs from a fresh engine's", i)
		}
	}
	if m, ok := marg.(*tuffy.MarginalResult); ok {
		r, err := eng.InferMarginal(ctx, margOpts)
		if g.op("fresh marginal", err) {
			g.check(digestMarginal(r) == digestMarginal(m), "served marginal differs from a fresh engine's")
		}
	} else {
		g.check(false, "no served marginal to check")
	}
	if m, ok := indb.(*tuffy.MAPResult); ok {
		r, err := eng.InferMAP(ctx, indbOpts)
		if g.op("fresh in-database MAP", err) {
			g.check(digestMAP(r) == digestMAP(m), "served in-database MAP differs from a fresh engine's")
		}
	} else {
		g.check(false, "no served in-database MAP to check")
	}
	return nil
}
