package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered set of named metrics.
type metricSet struct {
	names  []string
	values map[string]metric
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method, or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// summary is what the report uses of one operation class.
type summary struct {
	rate     float64 // 1/s, over every round
	mean     float64 // ms, median of the rounds
	p50, p99 float64 // ms, over every round
}

// summarize takes one class's latencies per round and each round's
// wall time. The mean is taken per round and reported as the median of
// the rounds: rounds are spread over the whole run, so a few slow
// seconds of a shared machine move the median less than they move a
// mean over the whole window. The rate is every round's operations
// over every round's time, since a round holds whole client rounds
// and its own count moves in steps of one client round.
func summarize(rounds [][]time.Duration, walls []time.Duration) summary {
	var all, means []float64
	var wall time.Duration
	for i, ds := range rounds {
		xs := durMS(ds)
		all = append(all, xs...)
		wall += walls[i]
		if len(xs) > 0 {
			means = append(means, mean(xs))
		}
	}
	return summary{rate: float64(len(all)) / wall.Seconds(), mean: median(means), p50: median(all), p99: percentile(all, 0.99)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// settle collects garbage before a timed phase, so each phase starts
// from the same heap state instead of paying for its predecessor's
// garbage.
func settle() { runtime.GC() }

// liveHeapMiB is the heap still in use after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
