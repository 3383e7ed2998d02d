package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/obs"
	"magiccounting/internal/server"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order. A traced run reports all of them; one a workload does not
// exercise reads 0.
var layerMetrics = [][2]string{
	{"client.query_rtt_us", "us"},
	{"server.http_us", "us"},
	{"server.handler_us", "us"},
	{"server.service_us", "us"},
	{"server.json_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_misses", "count"},
	{"server.queue_wait_us", "us"},
	{"server.compiles", "count"},
	{"server.compile_ms", "ms"},
	{"server.batch_item_us", "us"},
	{"server.append_handler_us", "us"},
	{"server.delta_compiles", "count"},
	{"server.delta_fallbacks", "count"},
	{"server.chain_collapses", "count"},
	{"core.compile_ms", "ms"},
	{"core.extend_us", "us"},
	{"core.flatten_ms", "ms"},
	{"core.solve_us", "us"},
	{"core.choose_us", "us"},
	{"core.step1_us", "us"},
	{"core.step2_us", "us"},
	{"core.solve_alloc_bytes", "B"},
	{"core.reached_nodes", "count"},
	{"core.alloc_bytes_per_reached_node", "B"},
	{"core.retrievals_per_solve", "count"},
	{"core.resident_bytes", "B"},
	{"durable.append_us", "us"},
	{"durable.fsync_us", "us"},
	{"durable.snapshot_ms", "ms"},
	{"durable.snapshots", "count"},
	{"durable.wal_bytes_per_fact", "B"},
	{"durable.open_ms", "ms"},
	{"durable.replayed_records", "count"},
	{"datalog.parse_us", "us"},
	{"rewrite.rewrite_us", "us"},
	{"engine.eval_ms", "ms"},
	{"engine.rounds", "count"},
	{"core.oneshot_solve_us", "us"},
	{"relation.retrievals", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// complete returns the per-layer metrics in layerMetrics order, with 0
// for every one the run did not measure.
func (m *metricSet) complete() metricSet {
	var out metricSet
	for _, lm := range layerMetrics {
		v, ok := m.values[lm[0]]
		if !ok {
			v = metric{Unit: lm[1]}
		}
		out.set(lm[0], v.Value, v.Unit)
	}
	return out
}

// foldServerLayers derives the server-layer metrics of a traced window
// from the client's round trips, the handler timer, the spans the
// server returned for trace:true, and the /v1/stats counters read
// in-process before and after the window.
func (r *servingRun) foldServerLayers(m *metricSet, logs []*opLog, before, after server.Stats, promBefore, promAfter map[string]float64) {
	var rtt []time.Duration
	var service []float64
	var acquire, compile []float64
	for _, l := range logs {
		rtt = append(rtt, l.q...)
		service = append(service, l.service...)
		for _, sp := range l.spans {
			acquire = append(acquire, spanMS(sp, named("acquire"))...)
			compile = append(compile, spanMS(sp, named("compile"))...)
		}
	}
	h := r.live.handler
	handler := median(durUS(h.take("/v1/query")))
	rttUS := median(durUS(rtt))
	serviceUS := 1000 * median(service)
	m.set("client.query_rtt_us", rttUS, "us")
	m.set("server.http_us", rttUS-handler, "us")
	m.set("server.handler_us", handler, "us")
	m.set("server.service_us", serviceUS, "us")
	m.set("server.json_us", handler-serviceUS, "us")
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.set("server.cache_hit_ratio", ratio, "ratio")
	m.set("server.cache_misses", float64(misses), "count")
	m.set("server.queue_wait_us", 1000*median(acquire), "us")
	m.set("server.compiles", float64(after.Compiles-before.Compiles), "count")
	// Compiles on the query path carry a span; delta compiles run on
	// the append path and are timed by mc_delta_compile_seconds.
	const dh = "mc_delta_compile_seconds"
	compileMS, compiles := sum(compile), float64(len(compile))
	compileMS += 1000 * (promAfter[dh+"_sum"] - promBefore[dh+"_sum"])
	compiles += promAfter[dh+"_count"] - promBefore[dh+"_count"]
	if compiles > 0 {
		compileMS /= compiles
	}
	m.set("server.compile_ms", compileMS, "ms")
	m.set("server.batch_item_us", median(durUS(h.take("/v1/query/batch")))/float64(r.p.batchSize), "us")
	m.set("server.append_handler_us", median(durUS(h.take("/v1/facts"))), "us")
	m.set("server.delta_compiles", float64(after.DeltaCompile.DeltaCompiles-before.DeltaCompile.DeltaCompiles), "count")
	m.set("server.delta_fallbacks", float64(after.DeltaCompile.Fallbacks-before.DeltaCompile.Fallbacks), "count")
	m.set("server.chain_collapses", float64(after.Memory.ChainCollapses-before.Memory.ChainCollapses), "count")
	m.set("durable.snapshots", float64(after.Snapshots-before.Snapshots), "count")
}

// promSeries reads the service's Prometheus exposition in-process and
// returns every unlabeled sample by name.
func promSeries(svc *server.Service) map[string]float64 {
	var buf bytes.Buffer
	out := map[string]float64{}
	if err := svc.WriteMetrics(&buf); err != nil {
		return out
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// spanMS collects the durations of the spans whose name satisfies
// match, not descending into a matched span.
func spanMS(sp *obs.Span, match func(string) bool) []float64 {
	var out []float64
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if match(s.Name) {
			out = append(out, s.DurationMS)
			return
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(sp)
	return out
}

func named(name string) func(string) bool {
	return func(s string) bool { return s == name }
}

func prefixed(prefix string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, prefix) }
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayLayers replays the traced window's operations into core and
// durable directly, timing each layer's public functions on their own:
// the base database compiled once, every append extended onto it (and
// flattened at the server's default retention depth of 8) and logged
// write-ahead, every singleton query classified and solved.
func (r *servingRun) replayLayers(m *metricSet, logs []*opLog) error {
	var L, E, R []core.Pair
	for _, rg := range r.b.regions {
		L, E, R = append(L, rg.l...), append(E, rg.e...), append(R, rg.r...)
	}
	var appends, queries []op
	for _, l := range logs {
		for _, o := range l.ops {
			if o.kind == 'a' && len(appends) < r.p.replayAppends {
				appends = append(appends, o)
			}
			if o.kind == 'q' && len(queries) < r.p.replayQueries {
				queries = append(queries, o)
			}
		}
	}

	start := time.Now()
	c := core.Compile(L, E, R)
	m.set("core.compile_ms", ms(time.Since(start)), "ms")

	var extend, flatten []float64
	for _, o := range appends {
		start := time.Now()
		c = c.Extend(o.l, o.e, o.r)
		extend = append(extend, us(time.Since(start)))
		if c.DeltaDepth() >= 8 {
			start := time.Now()
			c = c.Flatten()
			flatten = append(flatten, ms(time.Since(start)))
		}
	}
	m.set("core.extend_us", median(extend), "us")
	m.set("core.flatten_ms", median(flatten), "ms")

	var solveUS, chooseUS, step1, step2, allocs, reached, retr []float64
	for _, o := range queries {
		var st core.Strategy
		var md core.Mode
		var opts core.Options
		if o.strategy == "" {
			start := time.Now()
			sel := c.ChooseMethod(o.source)
			chooseUS = append(chooseUS, us(time.Since(start)))
			st, md, opts = sel.Strategy, sel.Mode, sel.Options
		} else {
			var err error
			if st, err = server.ParseStrategy(o.strategy); err != nil {
				return err
			}
			if md, err = server.ParseMode(o.mode); err != nil {
				return err
			}
		}
		a0 := allocBytes()
		start := time.Now()
		res, err := c.Solve(o.source, st, md, opts)
		d := time.Since(start)
		a1 := allocBytes()
		if err != nil {
			return err
		}
		solveUS = append(solveUS, us(d))
		allocs = append(allocs, float64(a1-a0))
		reached = append(reached, float64(res.Stats.MagicSetSize))
		retr = append(retr, float64(res.Stats.Retrievals))
		topts := opts
		topts.Trace = obs.New("solve", 0)
		tres, err := c.Solve(o.source, st, md, topts)
		if err != nil {
			return err
		}
		root := topts.Trace.Finish(tres.Stats.Retrievals)
		step1 = append(step1, 1000*sum(spanMS(root, prefixed("step1/"))))
		step2 = append(step2, 1000*sum(spanMS(root, prefixed("step2/"))))
	}
	m.set("core.solve_us", median(solveUS), "us")
	m.set("core.choose_us", median(chooseUS), "us")
	m.set("core.step1_us", median(step1), "us")
	m.set("core.step2_us", median(step2), "us")
	m.set("core.solve_alloc_bytes", mean(allocs), "B")
	m.set("core.reached_nodes", mean(reached), "count")
	perNode := 0.0
	if mr := mean(reached); mr > 0 {
		perNode = mean(allocs) / mr
	}
	m.set("core.alloc_bytes_per_reached_node", perNode, "B")
	m.set("core.retrievals_per_solve", mean(retr), "count")
	m.set("core.resident_bytes", float64(c.ResidentBytes()), "B")

	return r.replayDurable(m, appends, c)
}

// replayDurable logs the base load and the traced appends into a fresh
// durable store under fsync always, then snapshots the final state,
// appends the same tail the crash image carries, and times reopening.
func (r *servingRun) replayDurable(m *metricSet, appends []op, c *core.Compiled) error {
	dir, err := os.MkdirTemp(r.work, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var fsyncs []float64
	opts := durable.Options{Fsync: durable.FsyncAlways, OnFsync: func(d time.Duration) { fsyncs = append(fsyncs, us(d)) }}
	st, _, err := durable.Open(dir, opts, nil)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()

	var gen uint64
	var facts int
	var L, E, R []core.Pair
	var appendUS []float64
	logRec := func(l, e, rr []core.Pair) error {
		gen++
		rec := durable.Record{Gen: gen, L: l, E: e, R: rr}
		start := time.Now()
		if err := st.Append(rec); err != nil {
			return err
		}
		appendUS = append(appendUS, us(time.Since(start)))
		facts += rec.Facts()
		L, E, R = append(L, l...), append(E, e...), append(R, rr...)
		return nil
	}
	for _, chunk := range r.b.loadChunks(r.p.chunkFacts) {
		var l, e, rr []core.Pair
		for _, rg := range chunk {
			l, e, rr = append(l, rg.l...), append(e, rg.e...), append(rr, rg.r...)
		}
		if err := logRec(l, e, rr); err != nil {
			return err
		}
	}
	for _, o := range appends {
		if err := logRec(o.l, o.e, o.r); err != nil {
			return err
		}
	}
	walBytes, err := walSize(dir)
	if err != nil {
		return err
	}
	m.set("durable.append_us", median(appendUS), "us")
	m.set("durable.fsync_us", median(fsyncs), "us")
	m.set("durable.wal_bytes_per_fact", float64(walBytes)/float64(max(facts, 1)), "B")

	floor, err := st.Rotate()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := st.WriteSnapshot(durable.Snapshot{Gen: gen, L: L, E: E, R: R, Compiled: c}, floor); err != nil {
		return err
	}
	m.set("durable.snapshot_ms", ms(time.Since(start)), "ms")
	rng := rand.New(rand.NewSource(r.seed*151 + 3))
	for i := 0; i < r.p.tailAppends; i++ {
		// Serials past any the run used, so the tail replays as new facts.
		l, e, rr := freshDelta(rng, r.b.regions[rng.Intn(len(r.b.regions))], 1<<30+i)
		if err := logRec(l, e, rr); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	start = time.Now()
	st, info, err := durable.Open(dir, opts, nil)
	if err != nil {
		return err
	}
	m.set("durable.open_ms", ms(time.Since(start)), "ms")
	m.set("durable.replayed_records", float64(info.ReplayedRecords), "count")
	return nil
}

// walSize sums the WAL segment bytes in dir (everything but snapshots).
func walSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
