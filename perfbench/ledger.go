package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"magiccounting/internal/core"
	"magiccounting/internal/oracle"
	"magiccounting/internal/server"
)

// ledger is the benchmark's own record of every acknowledged append,
// kept apart from the server: it answers "which facts did region g
// hold at generation n" and checks server outputs against
// internal/oracle answers computed from those facts. The oracle shares
// no code with internal/core, and region confinement (Fact 2) lets it
// solve one region instead of the whole database.
type ledger struct {
	mu  sync.Mutex
	gen uint64
	// versions[g] lists region g's fact sets in generation order; each
	// version holds the region's whole fact set as of its generation.
	versions         [][]version
	nL, nE, nR       int
	lSet, eSet, rSet map[core.Pair]bool
	// pending holds answers observed while the clock runs, checked
	// after it stops so the oracle never competes with the server for
	// the CPU inside a measured window.
	pending []observation
}

type version struct {
	gen     uint64
	l, e, r []core.Pair
}

type verKey struct {
	region, idx int
}

// observation is one answer a response reported: the source, the
// generation the response names, and a digest of its answer set.
type observation struct {
	what   string
	source string
	gen    uint64
	n      int
	digest uint64
}

func newLedger(regions int) *ledger {
	return &ledger{
		versions: make([][]version, regions),
		lSet:     make(map[core.Pair]bool),
		eSet:     make(map[core.Pair]bool),
		rSet:     make(map[core.Pair]bool),
	}
}

// ack records an acknowledged append of l/e/r, whose response resp
// names the generation it produced and the facts it added. Every
// benchmark append carries only facts absent from the database, so
// each one must add all of them and advance the generation by exactly
// one.
func (lg *ledger) ack(l, e, r []core.Pair, resp server.FactsResponse) error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if resp.Generation != lg.gen+1 {
		return fmt.Errorf("append acknowledged as generation %d, want %d (one past the last acknowledged)", resp.Generation, lg.gen+1)
	}
	addL, addE, addR := countNew(lg.lSet, l), countNew(lg.eSet, e), countNew(lg.rSet, r)
	if resp.AddedL != addL || resp.AddedE != addE || resp.AddedR != addR {
		return fmt.Errorf("append at generation %d reported added l/e/r %d/%d/%d, ledger says %d/%d/%d",
			resp.Generation, resp.AddedL, resp.AddedE, resp.AddedR, addL, addE, addR)
	}
	lg.gen = resp.Generation
	byRegion := map[int]*version{}
	var order []int
	touch := func(name string) *version {
		g := regionOf(name)
		if v, ok := byRegion[g]; ok {
			return v
		}
		v := &version{gen: lg.gen}
		if vs := lg.versions[g]; len(vs) > 0 {
			last := vs[len(vs)-1]
			v.l, v.e, v.r = last.l, last.e, last.r
		}
		// Copy on first touch: earlier versions stay immutable.
		v.l = append([]core.Pair(nil), v.l...)
		v.e = append([]core.Pair(nil), v.e...)
		v.r = append([]core.Pair(nil), v.r...)
		byRegion[g] = v
		order = append(order, g)
		return v
	}
	for _, p := range l {
		if !lg.lSet[p] {
			lg.lSet[p] = true
			lg.nL++
			v := touch(p.From)
			v.l = append(v.l, p)
		}
	}
	for _, p := range e {
		if !lg.eSet[p] {
			lg.eSet[p] = true
			lg.nE++
			v := touch(p.From)
			v.e = append(v.e, p)
		}
	}
	for _, p := range r {
		if !lg.rSet[p] {
			lg.rSet[p] = true
			lg.nR++
			v := touch(p.From)
			v.r = append(v.r, p)
		}
	}
	for _, g := range order {
		lg.versions[g] = append(lg.versions[g], *byRegion[g])
	}
	return nil
}

func countNew(set map[core.Pair]bool, ps []core.Pair) int {
	seen := map[core.Pair]bool{}
	n := 0
	for _, p := range ps {
		if !set[p] && !seen[p] {
			seen[p] = true
			n++
		}
	}
	return n
}

// lastGen is the last acknowledged generation.
func (lg *ledger) lastGen() uint64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.gen
}

// facts is the ledger's total fact count.
func (lg *ledger) facts() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.nL + lg.nE + lg.nR
}

// observe queues one answer for checking.
func (lg *ledger) observe(what, source string, gen uint64, answers []string) {
	o := observation{what: what, source: source, gen: gen, n: len(answers), digest: digest(answers)}
	lg.mu.Lock()
	lg.pending = append(lg.pending, o)
	lg.mu.Unlock()
}

// digest hashes an answer set independently of its order.
func digest(answers []string) uint64 {
	s := answers
	if !sort.StringsAreSorted(s) {
		s = append([]string(nil), answers...)
		sort.Strings(s)
	}
	h := fnv.New64a()
	for _, a := range s {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// solvers caches one oracle fixpoint per region version for one batch
// of checks. It is dropped after the batch, so the benchmark's own heap
// does not grow with the number of versions it checked.
type solvers map[verKey]func(string) []string

// expected returns the oracle's answers for source at generation gen.
// Callers hold lg.mu.
func (lg *ledger) expected(cache solvers, source string, gen uint64) ([]string, error) {
	if gen > lg.gen {
		return nil, fmt.Errorf("generation %d was never acknowledged (last %d)", gen, lg.gen)
	}
	g := regionOf(source)
	if g < 0 || g >= len(lg.versions) {
		return []string{}, nil
	}
	vs := lg.versions[g]
	idx := sort.Search(len(vs), func(i int) bool { return vs[i].gen > gen }) - 1
	if idx < 0 {
		return []string{}, nil
	}
	key := verKey{g, idx}
	solve, ok := cache[key]
	if !ok {
		v := vs[idx]
		solve = oracle.Solver(arcs(v.l), arcs(v.e), arcs(v.r))
		cache[key] = solve
	}
	return solve(source), nil
}

func arcs(ps []core.Pair) []oracle.Arc {
	out := make([]oracle.Arc, len(ps))
	for i, p := range ps {
		out[i] = oracle.Arc{From: p.From, To: p.To}
	}
	return out
}

// checkNow checks one answer immediately (recovery, setup).
func (lg *ledger) checkNow(what, source string, gen uint64, answers []string) error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.checkLocked(solvers{}, observation{what: what, source: source, gen: gen, n: len(answers), digest: digest(answers)})
}

func (lg *ledger) checkLocked(cache solvers, o observation) error {
	want, err := lg.expected(cache, o.source, o.gen)
	if err != nil {
		return fmt.Errorf("%s from %s: %w", o.what, o.source, err)
	}
	if o.n != len(want) || o.digest != digest(want) {
		return fmt.Errorf("%s from %s at generation %d: %d answers differ from the oracle's %d %v",
			o.what, o.source, o.gen, o.n, len(want), clip(want))
	}
	return nil
}

// checkPending checks every queued answer, reporting the first wrong one.
func (lg *ledger) checkPending() error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	pend := lg.pending
	lg.pending = nil
	cache := solvers{}
	for _, o := range pend {
		if err := lg.checkLocked(cache, o); err != nil {
			return err
		}
	}
	return nil
}

// checkStats compares a /v1/stats snapshot taken while no append was
// in flight against the ledger: same generation, same fact counts.
func (lg *ledger) checkStats(st server.Stats) error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if st.Generation != lg.gen {
		return fmt.Errorf("server reports generation %d, last acknowledged is %d", st.Generation, lg.gen)
	}
	if st.FactsL != lg.nL || st.FactsE != lg.nE || st.FactsR != lg.nR {
		return fmt.Errorf("server holds l/e/r %d/%d/%d facts, ledger %d/%d/%d",
			st.FactsL, st.FactsE, st.FactsR, lg.nL, lg.nE, lg.nR)
	}
	return nil
}

func clip(xs []string) []string {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}
