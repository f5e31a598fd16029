package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"strings"
)

// Data shape of mdserve -gen: casestudy.DefaultGen with 100k patients.
const (
	facts      = 100000
	lowLevels  = 140 // L0..L139
	families   = 20  // F0..F19
	groups     = 4   // G0..G3
	areas      = 16  // A0..A15
	counties   = 4   // C0..C3
	regions    = 2   // R0..R1
	maxAge     = 100 // ages 0..99
	moName     = "patients"
	columnsMin = 16 // -columns: the storage default kernel threshold
	cacheBytes = 1 << 20
)

// op is one request of a stream: a query or a durable append.
type op struct {
	append bool
	q      string // query source
	path   string // /query?q=… with the source escaped
	fact   string // append: the new fact id
	pairs  [3][2]string
	body   []byte // append: the POST /append body
}

func queryOp(q string) op {
	return op{q: q, path: "/query?q=" + url.QueryEscape(q)}
}

// appendOp relates a new fact to a low-level diagnosis, an area and an
// age, so every hot query's groups move with the writes.
func appendOp(id string, rng *rand.Rand) op {
	o := op{append: true, fact: id, pairs: [3][2]string{
		{"Diagnosis", fmt.Sprintf("L%d", rng.Intn(lowLevels))},
		{"Residence", fmt.Sprintf("A%d", rng.Intn(areas))},
		{"Age", fmt.Sprintf("%d", rng.Intn(maxAge))},
	}}
	var b strings.Builder
	fmt.Fprintf(&b, `{"mo":%q,"fact":%q,"pairs":[`, moName, id)
	for i, p := range o.pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"dim":%q,"value":%q}`, p[0], p[1])
	}
	b.WriteString("]}")
	o.body = []byte(b.String())
	return o
}

var (
	aggs = []string{"SETCOUNT(*)", "COUNT(Age)", "SUM(Age)", "AVG(Age)", "MIN(Age)", "MAX(Age)"}
	// groupBys are the planner-shaped grouping legs of the two
	// hierarchies the generator builds.
	groupBys = []string{
		`Diagnosis."Diagnosis Group"`, `Diagnosis."Diagnosis Family"`,
		`Residence.Region`, `Residence.County`, `Residence.Area`,
	}
)

// adhocQuery draws one grouped query from the adhoc space: aggregate ×
// grouping leg × {no WHERE, Age >= k, Age < k, Residence = v,
// Diagnosis IN (…)}. Every shape is planned; none needs the algebra.
func adhocQuery(rng *rand.Rand) string {
	q := "SELECT " + aggs[rng.Intn(len(aggs))] + " FROM " + moName
	// The unfiltered variant has only 30 distinct queries, which would
	// soon all be cached; draw it rarely so nearly every request misses.
	switch where := rng.Intn(41); {
	case where == 0:
	case where <= 10:
		q += fmt.Sprintf(" WHERE Age >= %d", 1+rng.Intn(maxAge-1))
	case where <= 20:
		q += fmt.Sprintf(" WHERE Age < %d", 1+rng.Intn(maxAge-1))
	case where <= 30:
		q += fmt.Sprintf(" WHERE Residence = '%s'", residenceValue(rng))
	default:
		n := 1 + rng.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = "'" + diagnosisValue(rng) + "'"
		}
		q += " WHERE Diagnosis IN (" + strings.Join(vals, ",") + ")"
	}
	return q + " GROUP BY " + groupBys[rng.Intn(len(groupBys))]
}

func residenceValue(rng *rand.Rand) string {
	switch n := rng.Intn(areas + counties + regions); {
	case n < areas:
		return fmt.Sprintf("A%d", n)
	case n < areas+counties:
		return fmt.Sprintf("C%d", n-areas)
	default:
		return fmt.Sprintf("R%d", n-areas-counties)
	}
}

func diagnosisValue(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("G%d", rng.Intn(groups))
	case 1:
		return fmt.Sprintf("F%d", rng.Intn(families))
	default:
		return fmt.Sprintf("L%d", rng.Intn(lowLevels))
	}
}

// dashboardQueries are the panels of a dashboard: a dozen grouped
// queries over both hierarchies, every aggregate, every WHERE kind.
var dashboardQueries = []string{
	`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT COUNT(Age) FROM patients GROUP BY Residence.Region`,
	`SELECT SUM(Age) FROM patients GROUP BY Residence.County`,
	`SELECT AVG(Age) FROM patients GROUP BY Diagnosis."Diagnosis Family"`,
	`SELECT MIN(Age) FROM patients WHERE Age >= 65 GROUP BY Residence.Region`,
	`SELECT MAX(Age) FROM patients WHERE Age < 18 GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SETCOUNT(*) FROM patients WHERE Residence = 'R0' GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT AVG(Age) FROM patients WHERE Diagnosis IN ('G0','G1') GROUP BY Residence.Area`,
	`SELECT SUM(Age) FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SETCOUNT(*) FROM patients GROUP BY Residence.Area`,
	`SELECT COUNT(Age) FROM patients WHERE Residence = 'C1' GROUP BY Diagnosis."Diagnosis Family"`,
	`SELECT AVG(Age) FROM patients GROUP BY Residence.Region`,
}

// oracleQueries is the fixed sample checked against the algebra before
// timing: together they cover every aggregate, every grouping leg and
// every WHERE kind of the adhoc space. The first is also the setup probe.
var oracleQueries = []string{
	`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT COUNT(Age) FROM patients WHERE Age >= 40 GROUP BY Residence.Region`,
	`SELECT SUM(Age) FROM patients WHERE Age < 30 GROUP BY Diagnosis."Diagnosis Family"`,
	`SELECT AVG(Age) FROM patients WHERE Residence = 'C1' GROUP BY Residence.Area`,
	`SELECT MIN(Age) FROM patients WHERE Diagnosis IN ('G1','F3','L7') GROUP BY Residence.County`,
	`SELECT MAX(Age) FROM patients WHERE Residence = 'R1' GROUP BY Diagnosis."Diagnosis Group"`,
}

// workload is one traffic mix.
type workload struct {
	name string
	// next returns op i of worker w's stream.
	next func(w, i int, rng *rand.Rand, seed int64) op
	// hot lists the queries whose cached answers are re-checked against a
	// nocache recompute after the run (nil: none).
	hot []string
	// probeAppends is how many sequential appends follow the timed window
	// to measure append latency and recovery on a mix without writes.
	probeAppends int
	// traceOps is how many interleaved stream ops the traced run replays.
	traceOps int
}

var workloads = map[string]*workload{
	"adhoc-grouped": {
		name: "adhoc-grouped",
		next: func(w, i int, rng *rand.Rand, seed int64) op {
			return queryOp(adhocQuery(rng))
		},
		probeAppends: 1200,
		traceOps:     400,
	},
	"dashboard-hot": {
		name: "dashboard-hot",
		next: func(w, i int, rng *rand.Rand, seed int64) op {
			if rng.Intn(20) == 0 {
				return appendOp(factID(seed, w, i), rng)
			}
			return queryOp(dashboardQueries[zipfPick(rng)])
		},
		hot:      dashboardQueries,
		traceOps: 10000,
	},
}

// zipfPick draws a dashboard panel with zipf skew s=1.3: panel 0 is the
// landing view, the tail panels are opened rarely.
func zipfPick(rng *rand.Rand) int {
	u := rng.Float64() * zipfCum[len(zipfCum)-1]
	for k, c := range zipfCum {
		if u < c {
			return k
		}
	}
	return len(zipfCum) - 1
}

// zipfCum is the cumulative zipf weight of panels 0..k.
var zipfCum = func() []float64 {
	out := make([]float64, len(dashboardQueries))
	sum := 0.0
	for k := range out {
		sum += 1 / math.Pow(float64(k+1), 1.3)
		out[k] = sum
	}
	return out
}()

// factID names a streamed append uniquely within the run: the data
// directory is fresh per run, and the seed, worker and stream position
// keep ids distinct across workers and from the generator's p<n> ids.
func factID(seed int64, w, i int) string {
	return fmt.Sprintf("b%d-w%d-%d", seed, w, i)
}

// stream is worker w's deterministic op sequence for one run.
type stream struct {
	wl   *workload
	w    int
	seed int64
	rng  *rand.Rand
	i    int
}

func newStream(wl *workload, seed int64, w int) *stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", wl.name, seed, w)
	return &stream{wl: wl, w: w, seed: seed, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

func (s *stream) next() op {
	o := s.wl.next(s.w, s.i, s.rng, s.seed)
	s.i++
	return o
}

// interleave is the single sequence the traced run replays: op k is
// worker k%workers's op k/workers, the order a fair closed loop issues.
func interleave(wl *workload, seed int64, workers, n int) []op {
	ss := make([]*stream, workers)
	for w := range ss {
		ss[w] = newStream(wl, seed, w)
	}
	out := make([]op, n)
	for k := range out {
		out[k] = ss[k%workers].next()
	}
	return out
}

// probeOps are the sequential appends that follow a write-free mix.
func probeOps(wl *workload, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	out := make([]op, wl.probeAppends)
	for i := range out {
		out[i] = appendOp(fmt.Sprintf("b%d-probe-%d", seed, i), rng)
	}
	return out
}
