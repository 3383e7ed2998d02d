package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"magiccounting/internal/core"
	"magiccounting/internal/workload"
)

// region is one weakly connected part of the base database: a
// workload.RandomRegime instance whose every name carries the prefix
// "g<id>.", so regions share no constant and a query from any node
// only ever touches its own region (the paper's Fact 2).
type region struct {
	id      int
	l, e, r []core.Pair
	// lNodes are the region's L-side constants (its possible query
	// sources), sorted, the regime's own source first.
	lNodes []string
	// rNodes are its R-side constants, the targets churn appends may
	// attach E arcs to.
	rNodes []string
}

// base is the seeded database every serving workload starts from.
type base struct {
	regions []*region
	facts   int
	// sources lists every L-side constant of every region.
	sources []string
}

// regionPrefix names region id's constants.
func regionPrefix(id int) string { return "g" + strconv.Itoa(id) + "." }

// regionOf recovers the region id from a prefixed constant, or -1.
func regionOf(name string) int {
	if !strings.HasPrefix(name, "g") {
		return -1
	}
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return -1
	}
	id, err := strconv.Atoi(name[1:dot])
	if err != nil {
		return -1
	}
	return id
}

// kinds are the four Figure-3 regime generators, drawn in turn.
var kinds = []workload.RegimeKind{workload.KindRegular, workload.KindCyclicRegular, workload.KindMultiple, workload.KindRecurring}

// drawRegime draws a RandomRegime instance of the given kind whose fact
// count lies within a fifth of facts. RandomRegime's node counts vary
// by an order of magnitude between seeds; redrawing keeps every
// instance the same size, so the figures of two seeds differ by the
// generators' shapes, not by how many giant instances a draw happened
// to contain.
func drawRegime(rng *rand.Rand, kind workload.RegimeKind, size, facts int) core.Query {
	lo, hi := facts*4/5, facts*6/5
	for {
		q := workload.RandomRegime(kind, rng.Int63(), size)
		if n := distinctFacts(q); n >= lo && n <= hi {
			return q
		}
	}
}

func distinctFacts(q core.Query) int {
	seen := map[core.Pair]bool{}
	n := 0
	for i, rel := range [][]core.Pair{q.L, q.E, q.R} {
		for _, p := range rel {
			// Relations are separate sets: tag the pair with its relation.
			k := core.P(string(rune('0'+i))+p.From, p.To)
			if !seen[k] {
				seen[k] = true
				n++
			}
		}
	}
	return n
}

// makeBase draws n regions of about regionFacts facts each, cycling
// through the four regime generators.
func makeBase(seed int64, n, size, regionFacts int) *base {
	rng := rand.New(rand.NewSource(seed))
	b := &base{}
	for id := 0; id < n; id++ {
		kind := kinds[id%len(kinds)]
		rg := prefixRegion(id, drawRegime(rng, kind, size, regionFacts))
		b.regions = append(b.regions, rg)
		b.facts += rg.facts()
		b.sources = append(b.sources, rg.lNodes...)
	}
	return b
}

func (rg *region) facts() int { return len(rg.l) + len(rg.e) + len(rg.r) }

// prefixRegion renames q into region id and drops duplicate facts, so
// the ledger's fact counts equal what the server's set semantics keep.
func prefixRegion(id int, q core.Query) *region {
	pre := regionPrefix(id)
	rename := func(ps []core.Pair) []core.Pair {
		seen := make(map[core.Pair]bool, len(ps))
		out := make([]core.Pair, 0, len(ps))
		for _, p := range ps {
			p = core.P(pre+p.From, pre+p.To)
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		return out
	}
	rg := &region{id: id, l: rename(q.L), e: rename(q.E), r: rename(q.R)}
	src := pre + q.Source
	lSide := map[string]bool{src: true}
	for _, p := range rg.l {
		lSide[p.From], lSide[p.To] = true, true
	}
	for _, p := range rg.e {
		lSide[p.From] = true
	}
	rSide := map[string]bool{}
	for _, p := range rg.e {
		rSide[p.To] = true
	}
	for _, p := range rg.r {
		rSide[p.From], rSide[p.To] = true, true
	}
	rg.lNodes = sortedKeysFirst(lSide, src)
	rg.rNodes = sortedKeysFirst(rSide, "")
	return rg
}

func sortedKeysFirst(set map[string]bool, first string) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		if k != first {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	if first != "" {
		out = append([]string{first}, out...)
	}
	return out
}

// loadChunks groups the base regions into append requests of about
// chunkFacts facts each, whole regions per chunk.
func (b *base) loadChunks(chunkFacts int) [][]*region {
	var chunks [][]*region
	var cur []*region
	n := 0
	for _, rg := range b.regions {
		cur = append(cur, rg)
		n += rg.facts()
		if n >= chunkFacts {
			chunks = append(chunks, cur)
			cur, n = nil, 0
		}
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// freshDelta is one churn append: a short chain of new L-side nodes
// hanging off an existing L node of the region, an E arc from its end
// to a new R-side node, and an R pair that lets that node descend into
// the region's existing R side, so the append changes the answers of
// the anchor and its L ancestors. Every fact names a fresh constant:
// the append is never a deduplicated no-op and always bumps the
// generation.
func freshDelta(rng *rand.Rand, rg *region, serial int) (l, e, r []core.Pair) {
	pre := regionPrefix(rg.id)
	anchor := rg.lNodes[rng.Intn(len(rg.lNodes))]
	n := 1 + rng.Intn(3)
	prev := anchor
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("%sf%d_%d", pre, serial, i)
		l = append(l, core.P(prev, node))
		prev = node
	}
	rNew := fmt.Sprintf("%sq%d", pre, serial)
	e = append(e, core.P(prev, rNew))
	if len(rg.rNodes) > 0 {
		r = append(r, core.P(rg.rNodes[rng.Intn(len(rg.rNodes))], rNew))
	}
	return l, e, r
}
