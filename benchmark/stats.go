package main

import (
	"math"
	"sort"
	"time"
)

// tail is a latency summary: the median and the highest percentile up to
// 99 that still has at least minBeyond samples above it, with the sample
// count, so a p99 read off too few samples never passes for one.
type tail struct {
	N    int
	P50  float64
	Pct  float64 // the percentile reported as the tail: ≤ 99, 50 when none qualifies
	Tail float64
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// summarize sorts a copy of xs and applies the nearest-rank percentile
// rule: the tail is the sample at rank min(ceil(0.99·n), n−minBeyond),
// and Pct is that rank as a percentile of n.
func summarize(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := tail{N: n, P50: s[rank(0.5, n)-1]}
	if n <= minBeyond {
		t.Pct, t.Tail = 50, t.P50
		return t
	}
	r := rank(0.99, n)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	t.Pct = math.Min(99, 100*float64(r)/float64(n))
	t.Tail = s[r-1]
	return t
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(0.5, len(s))-1]
}

// second is one second of the timed window.
type second struct {
	ops      int
	queryMs  []float64
	appendMs []float64
	cpu      time.Duration // server CPU time spent in it
	steal    float64       // share of the machine's CPU time the host took, for the report
}

// bySecond buckets the window's completed ops by completion second; ops
// finishing after the window (the last in-flight requests) count in the
// last second. marks holds the n+1 readings taken at each whole second.
func bySecond(evs []event, marks []mark, n int) []second {
	secs := make([]second, n)
	for _, e := range evs {
		i := min(max(int(e.at/time.Second), 0), n-1)
		secs[i].ops++
		if e.append {
			secs[i].appendMs = append(secs[i].appendMs, e.ms)
		} else {
			secs[i].queryMs = append(secs[i].queryMs, e.ms)
		}
	}
	for i := range secs {
		secs[i].cpu = marks[i+1].cpu - marks[i].cpu
		secs[i].steal = marks[i+1].steal - marks[i].steal
	}
	return secs
}

// pooled joins the query or append latencies of secs.
func pooled(secs []second, appends bool) []float64 {
	var out []float64
	for _, s := range secs {
		if appends {
			out = append(out, s.appendMs...)
		} else {
			out = append(out, s.queryMs...)
		}
	}
	return out
}

// samplesPerGroup is how many samples a group of seconds should hold on
// average for its tail to be a p99 with minBeyond samples beyond it.
const samplesPerGroup = 100 * minBeyond

// groupedTail is the median, over k groups of consecutive seconds, of
// each group's tail (summarize), for the query or the append latencies.
// k is the largest odd number up to len(secs) that leaves
// samplesPerGroup samples per group on average, and at least 1, which is
// the plain tail of the window. A stall inside one group so moves one
// group's tail, not the run's.
func groupedTail(secs []second, appends bool) float64 {
	n := len(pooled(secs, appends))
	k := min(len(secs), n/samplesPerGroup)
	if k%2 == 0 {
		k--
	}
	k = max(k, 1)
	tails := make([]float64, k)
	for g := range tails {
		tails[g] = summarize(pooled(secs[g*len(secs)/k:(g+1)*len(secs)/k], appends)).Tail
	}
	return median(tails)
}
