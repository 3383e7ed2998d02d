package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/obs"
	"magiccounting/internal/server"
)

// methods are the eight strategy × mode pairs read-cold pins in turn.
var methods = [][2]string{
	{"basic", "independent"}, {"basic", "integrated"},
	{"single", "independent"}, {"single", "integrated"},
	{"multiple", "independent"}, {"multiple", "integrated"},
	{"recurring", "independent"}, {"recurring", "integrated"},
}

// tamperAnswers, when set by a test, corrupts every singleton answer
// before it is checked, to prove the checks can fail.
var tamperAnswers func([]string) []string

// op is one client operation.
type op struct {
	kind           byte // 'q' singleton query, 'b' batch, 'a' append
	source         string
	strategy, mode string
	sources        []string
	l, e, r        []core.Pair
	anchor         string // append: the existing node the delta hangs off
}

// opLog is what one client measured.
type opLog struct {
	q, b, a []time.Duration
	// Traced halves only: the service-internal time of each singleton
	// query (its elapsed_ms), the span trees of the queries that asked
	// for one, and the ops themselves for the core and durable replay.
	service []float64
	spans   []*obs.Span
	ops     []op
}

// servingRun is one run of a serving workload.
type servingRun struct {
	ctx  context.Context
	wl   string
	seed int64
	p    params
	work string
	b    *base

	live    *served
	liveDir string
	cl      *client
	lg      *ledger

	// solved and retrievals count queries the server actually solved
	// (cache misses) and the tuple retrievals they cost.
	solved, retrievals atomic.Int64
	attempted          atomic.Int64
	// tracing marks the traced half of a traced run.
	tracing atomic.Bool
	// serial numbers fresh append nodes; recent holds the L nodes the
	// latest appends touched, for the churn reader.
	serial   atomic.Int64
	recentMu sync.Mutex
	recent   []string
	// image is the latest crash image, and tailRng draws the appends
	// that give every image its WAL tail.
	image   *crashImage
	tailRng *rand.Rand
	// gens are the clients' round generators, made once per run so a
	// second window continues each client's stream instead of
	// repeating it.
	gens []func() []op
}

func runServing(ctx context.Context, wl string, seed int64, window time.Duration, traced bool, p params, work string) (out *outcome, err error) {
	r := &servingRun{ctx: ctx, wl: wl, seed: seed, p: p, work: work}
	defer func() {
		if r.cl != nil {
			r.cl.close()
		}
		if r.live != nil {
			if stopErr := r.live.stop(); stopErr != nil && err == nil {
				err = stopErr
			}
		}
	}()
	r.b = makeBase(seed, p.regions, p.regionSize, p.regionFacts)
	out = &outcome{correct: true}

	setups := make([]float64, 0, p.setups)
	for i := 0; i < p.setups; i++ {
		d, err := r.setup(traced)
		if err != nil {
			return out, err
		}
		setups = append(setups, d.Seconds())
		if i < p.setups-1 {
			r.cl.close()
			if err := r.live.stop(); err != nil {
				return out, err
			}
			r.live, r.cl = nil, nil
			os.RemoveAll(r.liveDir)
		}
	}
	// Let the background snapshots the load triggered finish, so they
	// never overlap the measured window.
	if err := r.live.svc.Checkpoint(); err != nil {
		return out, err
	}
	// The read workloads leave the database as it is, so one crash
	// image taken before the window serves all their recoveries;
	// append-churn takes a new one at the end of every round, so it
	// recovers the churned database.
	if wl != "append-churn" {
		if err := r.takeImage(); err != nil {
			return out, err
		}
	}
	if err := r.warmUp(); err != nil {
		return out, err
	}
	r.gens = r.clients()

	// The window runs in rounds, each followed by one timed crash
	// recovery with the clients stopped, so the recoveries are spread
	// over the run as the operations are. A traced run has two rounds,
	// the first untraced and the second traced: their difference is the
	// tracing overhead. It then recovers as often as an untraced run.
	var qr, br, ar [][]time.Duration
	var walls []time.Duration
	var recoveries []float64
	keep := func(logs []*opLog, wall time.Duration) {
		var q, b, a []time.Duration
		for _, l := range logs {
			q, b, a = append(q, l.q...), append(b, l.b...), append(a, l.a...)
			l.q, l.b, l.a = nil, nil, nil
		}
		qr, br, ar = append(qr, q), append(br, b), append(ar, a)
		walls = append(walls, wall)
	}
	recoverRound := func(newImage bool) error {
		if newImage {
			if err := r.takeImage(); err != nil {
				return err
			}
		}
		d, err := r.recoverOnce()
		if err != nil {
			return err
		}
		recoveries = append(recoveries, ms(d))
		return nil
	}
	var logs []*opLog
	if traced {
		half := window / 2
		plain, _, err := r.window(half)
		if err != nil {
			return out, err
		}
		before, promBefore := r.live.svc.Stats(), promSeries(r.live.svc)
		r.tracing.Store(true)
		r.live.handler.on.Store(true)
		var wall time.Duration
		logs, wall, err = r.window(window - half)
		r.live.handler.on.Store(false)
		r.tracing.Store(false)
		if err != nil {
			return out, err
		}
		after, promAfter := r.live.svc.Stats(), promSeries(r.live.svc)
		r.foldServerLayers(&out.layers, logs, before, after, promBefore, promAfter)
		primary := func(ls []*opLog) []float64 {
			var xs []time.Duration
			for _, l := range ls {
				if wl == "append-churn" {
					xs = append(xs, l.a...)
				} else {
					xs = append(xs, l.q...)
				}
			}
			return durMS(xs)
		}
		if base := median(primary(plain)); base > 0 {
			out.layers.set("bench.trace_overhead_pct", 100*(median(primary(logs))/base-1), "%")
		}
		keep(logs, wall)
		for i := 0; i < p.rounds; i++ {
			if err := recoverRound(i == 0 && wl == "append-churn"); err != nil {
				return out, err
			}
		}
	} else {
		for i := 0; i < p.rounds; i++ {
			round, wall, err := r.window(window / time.Duration(p.rounds))
			if err != nil {
				return out, err
			}
			keep(round, wall)
			if err := recoverRound(wl == "append-churn"); err != nil {
				return out, err
			}
		}
	}

	// Checks, with the clients stopped and no append in flight.
	if err := r.lg.checkPending(); err != nil {
		return out, &checkError{err}
	}
	if err := r.lg.checkStats(r.live.svc.Stats()); err != nil {
		return out, &checkError{err}
	}
	// Summarize the latencies and drop them before the heap is read, so
	// live_heap_mb does not grow with the number of operations a run
	// got through.
	q, b, a := summarize(qr, walls), summarize(br, walls), summarize(ar, walls)
	qr, br, ar = nil, nil, nil
	heapMiB := liveHeapMiB()

	if traced {
		if err := r.replayLayers(&out.layers, logs); err != nil {
			return out, err
		}
	}

	retrPerQuery := float64(r.retrievals.Load()) / float64(max(r.solved.Load(), 1))
	n := &out.named
	n.set("base_facts", float64(r.b.facts), "count")
	n.set("setup_s", median(setups), "s")
	n.set("query_rps", q.rate, "1/s")
	n.set("query_p50_ms", q.p50, "ms")
	n.set("query_p99_ms", q.p99, "ms")
	n.set("batch_p50_ms", b.p50, "ms")
	if wl == "append-churn" {
		n.set("append_rps", a.rate, "1/s")
		n.set("append_p50_ms", a.p50, "ms")
		n.set("append_p99_ms", a.p99, "ms")
	}
	n.set("recovery_ms", median(recoveries), "ms")
	n.set("live_heap_mb", heapMiB, "MiB")
	n.set("disk_bytes_per_fact", r.image.bytesPerFact, "B")
	n.set("retrievals_per_query", retrPerQuery, "count")

	// Query and batch latencies are gated at the median, which the
	// machine's bursts move least. Append latency is bimodal (a delta
	// compile, or a chain collapse and its GC) and its median jumps
	// between the modes, so its gate is the median of the rounds'
	// means. Rates are printed above but not gated (see README.md).
	opLat, auxLat := q.p50, b.p50
	if wl == "append-churn" {
		opLat, auxLat = a.mean, q.p50
	}
	e := &out.e2e
	e.set("setup_s", median(setups), "s")
	e.set("op_latency_ms", opLat, "ms")
	e.set("aux_latency_ms", auxLat, "ms")
	e.set("cold_answer_ms", median(recoveries), "ms")
	e.set("live_heap_mb", heapMiB, "MiB")

	out.attempted = int(r.attempted.Load())
	return out, nil
}

// setup starts a fresh server on an empty data directory, loads the
// base database over HTTP and asks the first, compiling, query. It
// returns the time all of that took; the acknowledgements and the
// answer are checked after the clock stops.
func (r *servingRun) setup(traced bool) (time.Duration, error) {
	dir, err := os.MkdirTemp(r.work, "data-")
	if err != nil {
		return 0, err
	}
	r.liveDir = dir
	r.lg = newLedger(len(r.b.regions))
	type acked struct {
		req  server.FactsRequest
		resp server.FactsResponse
	}
	chunks := r.b.loadChunks(r.p.chunkFacts)
	reqs := make([]acked, len(chunks))
	for i, chunk := range chunks {
		for _, rg := range chunk {
			reqs[i].req.L = append(reqs[i].req.L, rg.l...)
			reqs[i].req.E = append(reqs[i].req.E, rg.e...)
			reqs[i].req.R = append(reqs[i].req.R, rg.r...)
		}
	}
	src := r.b.regions[0].lNodes[0]

	settle()
	start := time.Now()
	s, err := startServer(dir, serviceConfig(r.p.snapshotEvery), traced)
	if err != nil {
		return 0, err
	}
	r.live = s
	r.cl = newClient(s.url)
	for i := range reqs {
		if err := r.cl.post(r.ctx, "/v1/facts", reqs[i].req, &reqs[i].resp); err != nil {
			return 0, fmt.Errorf("load: %w", err)
		}
	}
	var first server.QueryResponse
	if err := r.cl.post(r.ctx, "/v1/query", server.QueryRequest{Source: src}, &first); err != nil {
		return 0, fmt.Errorf("first query: %w", err)
	}
	took := time.Since(start)

	for _, a := range reqs {
		if err := r.lg.ack(a.req.L, a.req.E, a.req.R, a.resp); err != nil {
			return 0, &checkError{fmt.Errorf("load: %w", err)}
		}
	}
	if err := r.lg.checkNow("first query", src, first.Generation, first.Answers); err != nil {
		return 0, &checkError{err}
	}
	r.countSolved(first.Cached, first.NewRetrievals)
	return took, nil
}

func (r *servingRun) countSolved(cached bool, retrievals int64) {
	if !cached {
		r.solved.Add(1)
		r.retrievals.Add(retrievals)
	}
}

// hotSet is read-hot's working set: every region's root, the node its
// regime generator queries from, fewer than the result cache holds.
func (r *servingRun) hotSet() []string {
	set := make([]string, len(r.b.regions))
	for i, rg := range r.b.regions {
		set[i] = rg.lNodes[0]
	}
	return set
}

// warmUp fills the result cache with read-hot's working set; the other
// workloads start measuring at once.
func (r *servingRun) warmUp() error {
	if r.wl != "read-hot" {
		return nil
	}
	log := &opLog{}
	for _, src := range r.hotSet() {
		if err := r.do(log, op{kind: 'q', source: src}); err != nil {
			return err
		}
	}
	return nil
}

// window runs the workload's clients for d and returns their logs and
// the wall time until the last one finished its round.
func (r *servingRun) window(d time.Duration) ([]*opLog, time.Duration, error) {
	gens := r.gens
	logs := make([]*opLog, len(gens))
	errs := make([]error, len(gens))
	settle()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var stop atomic.Bool // set by the first client that fails
	for i, gen := range gens {
		logs[i] = &opLog{}
		wg.Add(1)
		go func(i int, gen func() []op) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// Whole rounds only, so every run attempts the same
				// operation mix.
				for _, o := range gen() {
					if stop.Load() {
						return
					}
					if err := r.do(logs[i], o); err != nil {
						errs[i] = err
						stop.Store(true)
						return
					}
				}
			}
		}(i, gen)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return logs, wall, nil
}

// clients returns one round generator per closed-loop client.
func (r *servingRun) clients() []func() []op {
	switch r.wl {
	case "read-hot":
		set := r.hotSet()
		gens := make([]func() []op, 2)
		for c := range gens {
			rng := rand.New(rand.NewSource(r.seed*131 + int64(c)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(set)-1))
			pick := func() string { return set[zipf.Uint64()] }
			gens[c] = func() []op {
				round := make([]op, 0, 32)
				for k := 0; k < 32; k++ {
					if k%16 == 15 {
						srcs := make([]string, r.p.batchSize)
						for i := range srcs {
							srcs[i] = pick()
						}
						round = append(round, op{kind: 'b', sources: srcs})
					} else {
						round = append(round, op{kind: 'q', source: pick()})
					}
				}
				return round
			}
		}
		return gens
	case "read-cold":
		gens := make([]func() []op, 2)
		for c := range gens {
			rng := rand.New(rand.NewSource(r.seed*137 + int64(c)))
			pick := func() string { return r.b.sources[rng.Intn(len(r.b.sources))] }
			gens[c] = func() []op {
				round := make([]op, 0, 32)
				for k := 0; k < 32; k++ {
					switch {
					case k%16 == 15:
						srcs := make([]string, r.p.batchSize)
						for i := range srcs {
							srcs[i] = pick()
						}
						round = append(round, op{kind: 'b', sources: srcs})
					case k%4 == 1:
						// A quarter of the singletons pin one of the
						// eight methods, each in turn; the rest select
						// automatically, as mcserved does by default.
						m := methods[(k/4)%len(methods)]
						round = append(round, op{kind: 'q', source: pick(), strategy: m[0], mode: m[1]})
					default:
						round = append(round, op{kind: 'q', source: pick()})
					}
				}
				return round
			}
		}
		return gens
	default: // append-churn
		wrng := rand.New(rand.NewSource(r.seed*139 + 1))
		writer := func() []op {
			round := make([]op, 0, 8)
			for k := 0; k < 8; k++ {
				round = append(round, r.appendOp(wrng))
			}
			return round
		}
		rrng := rand.New(rand.NewSource(r.seed*139 + 2))
		reader := func() []op {
			// The reader pins each of the eight methods in turn, so
			// its queries spend their time solving on the extended
			// artifact, not classifying it (read-cold measures the
			// automatic selection).
			round := make([]op, 0, 16)
			for k := 0; k < 16; k++ {
				if k == 15 {
					srcs := make([]string, r.p.batchSize)
					for i := range srcs {
						srcs[i] = r.recentSource(rrng)
					}
					round = append(round, op{kind: 'b', sources: srcs, strategy: "multiple", mode: "integrated"})
				} else {
					m := methods[k%len(methods)]
					round = append(round, op{kind: 'q', source: r.recentSource(rrng), strategy: m[0], mode: m[1]})
				}
			}
			return round
		}
		return []func() []op{writer, reader}
	}
}

// appendOp draws one fresh-node delta attached to a random region.
func (r *servingRun) appendOp(rng *rand.Rand) op {
	rg := r.b.regions[rng.Intn(len(r.b.regions))]
	l, e, rr := freshDelta(rng, rg, int(r.serial.Add(1)))
	return op{kind: 'a', l: l, e: e, r: rr, anchor: l[0].From}
}

// recentSource picks the root of a region an append touched lately, or
// any node before the first append.
func (r *servingRun) recentSource(rng *rand.Rand) string {
	r.recentMu.Lock()
	defer r.recentMu.Unlock()
	if len(r.recent) == 0 {
		return r.b.sources[rng.Intn(len(r.b.sources))]
	}
	return r.recent[rng.Intn(len(r.recent))]
}

func (r *servingRun) touched(o op) {
	r.recentMu.Lock()
	defer r.recentMu.Unlock()
	r.recent = append(r.recent, r.b.regions[regionOf(o.anchor)].lNodes[0])
	if len(r.recent) > 16 {
		r.recent = r.recent[len(r.recent)-16:]
	}
}

// do sends one operation and records its latency and its outputs for
// checking. An error stops the run: it is either a failed check that
// cannot wait or a cancelled context.
func (r *servingRun) do(log *opLog, o op) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	tracing := r.tracing.Load()
	r.attempted.Add(1)
	switch o.kind {
	case 'q':
		req := server.QueryRequest{Source: o.source, Strategy: o.strategy, Mode: o.mode}
		if tracing && len(log.q)%4 == 0 {
			req.Trace = true
		}
		var resp server.QueryResponse
		start := time.Now()
		err := r.cl.post(r.ctx, "/v1/query", req, &resp)
		d := time.Since(start)
		if err != nil {
			return r.opFailed(err)
		}
		log.q = append(log.q, d)
		if tamperAnswers != nil {
			resp.Answers = tamperAnswers(resp.Answers)
		}
		r.lg.observe("query", o.source, resp.Generation, resp.Answers)
		r.countSolved(resp.Cached, resp.NewRetrievals)
		if tracing {
			log.service = append(log.service, resp.ElapsedMS)
			if resp.Trace != nil {
				log.spans = append(log.spans, resp.Trace)
			}
			log.ops = append(log.ops, o)
		}
	case 'b':
		var resp server.BatchResponse
		start := time.Now()
		err := r.cl.post(r.ctx, "/v1/query/batch", server.BatchRequest{Sources: o.sources, Strategy: o.strategy, Mode: o.mode}, &resp)
		d := time.Since(start)
		if err != nil {
			return r.opFailed(err)
		}
		log.b = append(log.b, d)
		if len(resp.Items) != len(o.sources) {
			return checkFailed("batch of %d sources answered %d items", len(o.sources), len(resp.Items))
		}
		for i, it := range resp.Items {
			if it.Error != "" || it.Source != o.sources[i] {
				return checkFailed("batch item %d (%s): source %q error %q", i, o.sources[i], it.Source, it.Error)
			}
			r.lg.observe("batch item", it.Source, resp.Generation, it.Answers)
			r.countSolved(it.Cached, it.NewRetrievals)
		}
	case 'a':
		req := server.FactsRequest{L: o.l, E: o.e, R: o.r}
		var resp server.FactsResponse
		start := time.Now()
		err := r.cl.post(r.ctx, "/v1/facts", req, &resp)
		d := time.Since(start)
		if err != nil {
			return r.opFailed(err)
		}
		log.a = append(log.a, d)
		if err := r.lg.ack(o.l, o.e, o.r, resp); err != nil {
			return &checkError{err}
		}
		r.touched(o)
		if tracing {
			log.ops = append(log.ops, o)
		}
	}
	return nil
}

// opFailed reports a failed operation. No operation of these workloads
// may fail, so any failure ends the run without a result; a cancelled
// run reports the cancellation.
func (r *servingRun) opFailed(err error) error {
	if r.ctx.Err() != nil {
		return r.ctx.Err()
	}
	return fmt.Errorf("operation failed: %w", err)
}

// crashImage is a copy of the live data directory, taken as a kill -9
// would leave it.
type crashImage struct {
	dir string
	// source is the node the last acknowledged append hung off, and
	// gen that append's generation: a recovery must come back at gen
	// and answer source correctly.
	source       string
	gen          uint64
	bytesPerFact float64
}

// takeImage replaces the run's crash image with a new one. Before the
// copy, a checkpoint waits out any background snapshot and a fixed
// number of acknowledged appends follow it, so every image holds a
// snapshot plus a WAL tail of the same length.
func (r *servingRun) takeImage() error {
	if err := r.live.svc.Checkpoint(); err != nil {
		return err
	}
	if r.tailRng == nil {
		r.tailRng = rand.New(rand.NewSource(r.seed*149 + 7))
	}
	log := &opLog{}
	var last op
	for i := 0; i < r.p.tailAppends; i++ {
		last = r.appendOp(r.tailRng)
		if err := r.do(log, last); err != nil {
			return err
		}
	}
	if r.image != nil {
		os.RemoveAll(r.image.dir)
		r.image = nil
	}
	dir, err := os.MkdirTemp(r.work, "image-")
	if err != nil {
		return err
	}
	img := &crashImage{dir: dir, source: last.anchor, gen: r.lg.lastGen()}
	r.image = img
	if err := copyDir(r.liveDir, dir); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	img.bytesPerFact = float64(size) / float64(r.lg.facts())
	return nil
}

// recoverOnce opens a copy of the crash image in a fresh service and
// asks it one query, and returns the time from Open to the answer.
func (r *servingRun) recoverOnce() (time.Duration, error) {
	img := r.image
	dir, err := os.MkdirTemp(r.work, "recover-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(img.dir, dir); err != nil {
		return 0, err
	}
	settle()
	start := time.Now()
	s, err := startServer(dir, serviceConfig(r.p.snapshotEvery), false)
	if err != nil {
		return 0, err
	}
	cl := newClient(s.url)
	var resp server.QueryResponse
	qerr := cl.post(r.ctx, "/v1/query", server.QueryRequest{Source: img.source}, &resp)
	took := time.Since(start)
	st := s.svc.Stats()
	cl.close()
	stopErr := s.stop()
	if qerr != nil {
		return 0, qerr
	}
	if stopErr != nil {
		return 0, stopErr
	}
	if err := checkRecovered(r.lg, img.gen, s.info.Generation, resp, img.source, st); err != nil {
		return 0, err
	}
	return took, nil
}

// checkRecovered checks a recovered service: it must come back at
// exactly the last acknowledged generation, hold the ledger's facts,
// and answer oracle-correctly.
func checkRecovered(lg *ledger, want, recovered uint64, resp server.QueryResponse, source string, st server.Stats) error {
	if recovered != want {
		return checkFailed("recovered generation %d, last acknowledged %d", recovered, want)
	}
	if resp.Generation != want {
		return checkFailed("first answer after recovery names generation %d, want %d", resp.Generation, want)
	}
	if err := lg.checkStats(st); err != nil {
		return &checkError{fmt.Errorf("after recovery: %w", err)}
	}
	if err := lg.checkNow("first query after recovery", source, resp.Generation, resp.Answers); err != nil {
		return &checkError{err}
	}
	return nil
}
