package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"magiccounting/internal/core"
	"magiccounting/internal/datalog"
	"magiccounting/internal/engine"
	"magiccounting/internal/obs"
	"magiccounting/internal/oracle"
	"magiccounting/internal/relation"
	"magiccounting/internal/rewrite"
)

// sweepWorkers is how many passes paper-sweep runs at once.
const sweepWorkers = 2

// sweepInst is one paper-sweep instance with its reference answers.
type sweepInst struct {
	q    core.Query
	text string // the instance as a Datalog program, as mcq reads it
	// want is the oracle's answer set for q.Source, answer the oracle
	// for any source; regime and retrievals come from the differential
	// check (oracle.CheckInstance), which also holds the Figure-3 cost
	// hierarchy on them.
	want       []string
	answer     func(string) []string
	sources    []string
	regime     core.Regime
	retrievals map[string]int64
}

// sweepLeg is one method of the sweep: a one-shot core solve and the
// same method through Datalog parse → rewrite → engine.
type sweepLeg struct {
	label    string // oracle.CheckInstance's method label
	strategy core.Strategy
	mode     core.Mode
	kind     byte // 'm' magic counting, 'g' magic sets, 'c' counting
}

var sweepLegs = func() []sweepLeg {
	var legs []sweepLeg
	for _, s := range []core.Strategy{core.Basic, core.Single, core.Multiple, core.Recurring} {
		for _, m := range []core.Mode{core.Independent, core.Integrated} {
			legs = append(legs, sweepLeg{label: "mc-" + s.String() + "-" + m.String()[:3], strategy: s, mode: m, kind: 'm'})
		}
	}
	return append(legs, sweepLeg{label: "magic", kind: 'g'}, sweepLeg{label: "counting", kind: 'c'})
}()

// safe reports whether the paper allows the leg on the instance:
// pure counting diverges on cyclic magic graphs.
func (lg sweepLeg) safe(in *sweepInst) bool {
	return lg.kind != 'c' || in.regime != core.RegimeCyclic
}

// buildSweep draws the instances, sweepPerKind of every Figure-3
// regime generator with about sweepFacts facts each, renders their
// programs, and computes their oracle answers: the set-up a sweep pays
// before its first answer.
func buildSweep(seed int64, p params) []*sweepInst {
	rng := rand.New(rand.NewSource(seed))
	var out []*sweepInst
	for _, kind := range kinds {
		for i := 0; i < p.sweepPerKind; i++ {
			q := drawRegime(rng, kind, p.sweepSize, p.sweepFacts)
			l, e, r, _ := oracle.FromQuery(q)
			in := &sweepInst{q: q, text: programText(q), answer: oracle.Solver(l, e, r)}
			in.want = in.answer(q.Source)
			seen := map[string]bool{q.Source: true}
			in.sources = append(in.sources, q.Source)
			for _, p := range q.L {
				for _, n := range []string{p.From, p.To} {
					if !seen[n] {
						seen[n] = true
						in.sources = append(in.sources, n)
					}
				}
			}
			out = append(out, in)
		}
	}
	return out
}

// checkSweep runs the differential check on every instance: every
// evaluation path must agree with the oracle, the reduced sets must
// satisfy the paper's theorems, and the retrieval counts must obey the
// Figure-3 hierarchy. It records each instance's regime and per-method
// retrievals, which every timed run must then reproduce exactly.
func checkSweep(insts []*sweepInst) error {
	for i, in := range insts {
		rep, err := oracle.CheckInstance(in.q, oracle.Options{CostChecks: true})
		if err != nil {
			return checkFailed("sweep instance %d: %w", i, err)
		}
		if !equal(rep.Answers, in.want) {
			return checkFailed("sweep instance %d: the two oracle evaluators disagree", i)
		}
		in.regime, in.retrievals = rep.Regime, rep.Retrievals
	}
	return nil
}

// programText renders q as the canonical strongly linear program, the
// file mcq reads. Constants that are not plain lower-case identifiers
// (RandomRegime names nodes like n-1_0) are quoted, as a user writing
// the file would have to.
func programText(q core.Query) string {
	var b strings.Builder
	con := func(s string) string {
		for i, c := range s {
			if !(c == '_' || unicode.IsDigit(c) || unicode.IsLetter(c)) || (i == 0 && !unicode.IsLower(c)) {
				return strconv.Quote(s)
			}
		}
		return s
	}
	for _, rel := range []struct {
		pred  string
		pairs []core.Pair
	}{{"l", q.L}, {"e0", q.E}, {"r", q.R}} {
		for _, p := range rel.pairs {
			fmt.Fprintf(&b, "%s(%s, %s).\n", rel.pred, con(p.From), con(p.To))
		}
	}
	b.WriteString("p(X, Y) :- e0(X, Y).\n")
	b.WriteString("p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n")
	fmt.Fprintf(&b, "?- p(%s, Y).\n", con(q.Source))
	return b.String()
}

// sweepPass is what one pass over every instance measured.
type sweepPass struct {
	oneshot, batch, datalog []time.Duration
	parse, rewrite, eval    []time.Duration
	rounds                  []float64
	retrievals              int64 // core and engine, the whole pass
	engineRetrievals        int64
	solves                  int   // one-shot solves
	solveRetrievals         int64 // their retrievals
	ops                     int
}

func runSweep(ctx context.Context, seed int64, window time.Duration, traced bool, p params) (*outcome, error) {
	out := &outcome{correct: true}
	var insts []*sweepInst
	var setups []float64
	for i := 0; i < p.setups; i++ {
		settle()
		start := time.Now()
		insts = buildSweep(seed, p)
		setups = append(setups, time.Since(start).Seconds())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := checkSweep(insts); err != nil {
		return out, err
	}
	// The sweep's state is its instances, and passes do not change them,
	// so the heap is read here rather than after the passes, whose own
	// measurements would grow it with their number.
	heapMiB := liveHeapMiB()

	// Rates divide by the time the legs took, summed over the passes:
	// the checks between legs do not count. Two workers run whole
	// passes side by side, as two clients drive the serving workloads,
	// so the load spans both of the machine's cores; on one core the
	// figures moved with that core's neighbours (a pass's spread over
	// 100 seconds was 0.14 on one worker, 0.10 on two).
	var passes, plain []sweepPass
	measure := func(d time.Duration, tr bool) ([]sweepPass, error) {
		var (
			mu   sync.Mutex
			ps   []sweepPass
			errs = make([]error, sweepWorkers)
			stop atomic.Bool
			wg   sync.WaitGroup
		)
		settle()
		deadline := time.Now().Add(d)
		for w := 0; w < sweepWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for first := true; first || time.Now().Before(deadline); first = false {
					if stop.Load() {
						return
					}
					if err := ctx.Err(); err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
					pass, err := runPass(insts, tr)
					if err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
					mu.Lock()
					ps = append(ps, pass)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			var ce *checkError
			if errors.As(err, &ce) {
				return nil, ce
			}
			return nil, err
		}
		for i, pass := range ps {
			if pass.retrievals != ps[0].retrievals {
				return nil, checkFailed("sweep pass %d charged %d retrievals, the first %d", i, pass.retrievals, ps[0].retrievals)
			}
		}
		return ps, nil
	}
	var err error
	if traced {
		if plain, err = measure(window/2, false); err != nil {
			return out, err
		}
		passes, err = measure(window-window/2, true)
	} else {
		passes, err = measure(window, false)
	}
	if err != nil {
		return out, err
	}

	// Rates are taken per pass and reported as the median of the
	// passes; latencies are medians over every run of every pass.
	var all sweepPass
	var passS, rates []float64
	for _, ps := range passes {
		all.oneshot = append(all.oneshot, ps.oneshot...)
		all.batch = append(all.batch, ps.batch...)
		all.datalog = append(all.datalog, ps.datalog...)
		all.parse = append(all.parse, ps.parse...)
		all.rewrite = append(all.rewrite, ps.rewrite...)
		all.eval = append(all.eval, ps.eval...)
		all.rounds = append(all.rounds, ps.rounds...)
		all.solves += ps.solves
		all.solveRetrievals += ps.solveRetrievals
		all.ops += ps.ops
		var t time.Duration
		for _, d := range ps.oneshot {
			t += d
		}
		for _, d := range ps.batch {
			t += d
		}
		for _, d := range ps.datalog {
			t += d
		}
		passS = append(passS, t.Seconds())
		rates = append(rates, float64(len(ps.oneshot))/t.Seconds())
	}
	var plainOne []time.Duration
	for _, ps := range plain {
		all.ops += ps.ops
		plainOne = append(plainOne, ps.oneshot...)
	}
	one, batch, dl := durMS(all.oneshot), durMS(all.batch), durMS(all.datalog)
	retrPerQuery := float64(all.solveRetrievals) / float64(max(all.solves, 1))
	passRetrievals, engineRetrievals := passes[0].retrievals, passes[0].engineRetrievals
	if traced {
		m := &out.layers
		m.set("datalog.parse_us", median(durUS(all.parse)), "us")
		m.set("rewrite.rewrite_us", median(durUS(all.rewrite)), "us")
		m.set("engine.eval_ms", median(durMS(all.eval)), "ms")
		m.set("engine.rounds", mean(all.rounds), "count")
		m.set("core.oneshot_solve_us", 1000*median(one), "us")
		m.set("relation.retrievals", float64(engineRetrievals), "count")
		if b := median(durMS(plainOne)); b > 0 {
			m.set("bench.trace_overhead_pct", 100*(median(one)/b-1), "%")
		}
	}

	n := &out.named
	n.set("setup_s", median(setups), "s")
	n.set("sweep_s", median(passS), "s")
	n.set("sweep_retrievals", float64(passRetrievals), "count")
	n.set("query_rps", median(rates), "1/s")
	n.set("query_p50_ms", median(one), "ms")
	n.set("query_p99_ms", percentile(one, 0.99), "ms")
	n.set("batch_p50_ms", median(batch), "ms")
	n.set("datalog_p50_ms", median(dl), "ms")
	n.set("retrievals_per_query", retrPerQuery, "count")
	n.set("live_heap_mb", heapMiB, "MiB")

	e := &out.e2e
	e.set("setup_s", median(setups), "s")
	e.set("op_latency_ms", median(one), "ms")
	e.set("aux_latency_ms", median(batch), "ms")
	e.set("cold_answer_ms", median(dl), "ms")
	e.set("live_heap_mb", heapMiB, "MiB")
	out.attempted = all.ops
	return out, nil
}

// runPass runs every leg on every instance once and checks each answer
// set against the oracle and each retrieval count against the
// differential check's.
func runPass(insts []*sweepInst, traced bool) (sweepPass, error) {
	var ps sweepPass
	for _, in := range insts {
		for _, lg := range sweepLegs {
			if !lg.safe(in) {
				continue
			}
			var opts core.Options
			if traced {
				opts.Trace = obs.New(lg.label, 0)
			}
			start := time.Now()
			res, err := oneShot(in.q, lg, opts)
			d := time.Since(start)
			ps.ops++
			if err != nil {
				return ps, fmt.Errorf("%s: %w", lg.label, err)
			}
			ps.oneshot = append(ps.oneshot, d)
			ps.solves++
			ps.solveRetrievals += res.Stats.Retrievals
			ps.retrievals += res.Stats.Retrievals
			if !equal(res.Answers, in.want) {
				return ps, checkFailed("%s on a %s instance: answers %v, oracle %v", lg.label, in.regime, clip(res.Answers), clip(in.want))
			}
			if want := in.retrievals[lg.label]; res.Stats.Retrievals != want {
				return ps, checkFailed("%s on a %s instance: %d retrievals, the differential check measured %d", lg.label, in.regime, res.Stats.Retrievals, want)
			}

			got, dl, err := viaDatalog(in.text, lg, traced, &ps)
			ps.ops++
			if err != nil {
				return ps, fmt.Errorf("%s through the engine: %w", lg.label, err)
			}
			ps.datalog = append(ps.datalog, dl)
			if !equal(got, in.want) {
				return ps, checkFailed("%s through the engine on a %s instance: answers %v, oracle %v", lg.label, in.regime, clip(got), clip(in.want))
			}
		}

		// mcq -sources: compile once, solve every source.
		start := time.Now()
		c := core.Compile(in.q.L, in.q.E, in.q.R)
		results := make([]*core.Result, len(in.sources))
		for i, src := range in.sources {
			res, _, err := c.SolveAuto(src, core.Options{})
			if err != nil {
				return ps, fmt.Errorf("batch %s: %w", src, err)
			}
			results[i] = res
		}
		ps.batch = append(ps.batch, time.Since(start))
		ps.ops++
		for i, src := range in.sources {
			ps.retrievals += results[i].Stats.Retrievals
			if want := in.answer(src); !equal(results[i].Answers, want) {
				return ps, checkFailed("compiled auto solve from %s on a %s instance: answers %v, oracle %v", src, in.regime, clip(results[i].Answers), clip(want))
			}
		}
	}
	return ps, nil
}

func oneShot(q core.Query, lg sweepLeg, opts core.Options) (*core.Result, error) {
	switch lg.kind {
	case 'g':
		return q.SolveMagic()
	case 'c':
		return q.SolveCountingOpts(opts)
	default:
		return q.SolveMagicCountingOpts(lg.strategy, lg.mode, opts)
	}
}

// viaDatalog answers the instance the way mcq does: parse the program
// text, rewrite it for the method, evaluate bottom-up, read the goal.
func viaDatalog(text string, lg sweepLeg, traced bool, ps *sweepPass) ([]string, time.Duration, error) {
	start := time.Now()
	prog, err := datalog.Parse(text)
	if err != nil {
		return nil, 0, err
	}
	if len(prog.Queries) != 1 {
		return nil, 0, errors.New("program must hold one query")
	}
	goal := prog.Queries[0]
	parsed := time.Now()
	var rewritten *datalog.Program
	var renamed datalog.Atom
	switch lg.kind {
	case 'g':
		rewritten, renamed, err = rewrite.MagicSetsForQuery(prog, goal)
	case 'c':
		rewritten, renamed, err = rewrite.Counting(prog, goal)
	default:
		rewritten, renamed, err = rewrite.MCProgram(prog, goal, lg.strategy, lg.mode)
	}
	if err != nil {
		return nil, 0, err
	}
	rewrote := time.Now()
	store := relation.NewStore()
	opts := engine.Options{}
	if traced {
		opts.Trace = obs.New(lg.label, 0)
	}
	stats, err := engine.Eval(rewritten, store, opts)
	if err != nil {
		return nil, 0, err
	}
	tuples := engine.Match(store, renamed)
	free := -1
	for i, a := range renamed.Args {
		if a.IsVar() {
			free = i
		}
	}
	set := map[string]bool{}
	for _, t := range tuples {
		set[t[free].String()] = true
	}
	done := time.Now()
	ps.parse = append(ps.parse, parsed.Sub(start))
	ps.rewrite = append(ps.rewrite, rewrote.Sub(parsed))
	ps.eval = append(ps.eval, done.Sub(rewrote))
	ps.rounds = append(ps.rounds, float64(stats.Iterations))
	r := store.Meter().Retrievals()
	ps.engineRetrievals += r
	ps.retrievals += r
	return sortedSet(set), done.Sub(start), nil
}
