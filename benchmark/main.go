// Command benchmark is the repository's end-to-end benchmark: it starts
// a fresh mdserve per run, drives it over loopback HTTP with a
// closed-loop client on one of two traffic mixes, checks every answer
// it can, and prints the end-to-end metrics; with -trace 1 it also
// replays the mix in-process with spans around each layer's calls and
// prints the per-layer metrics instead. See README.md beside this file.
//
//	bash benchmark/run.sh --workload adhoc-grouped --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupBoots is how many times a run starts mdserve to time setup; the
// last start serves the measured traffic.
const setupBoots = 3

// warmup is how long the mix runs untimed before the window opens.
const warmup = 2 * time.Second

// bootLimit bounds one start or restart.
const bootLimit = 100 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	mdserve  string
	work     string
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "traffic mix: adhoc-grouped or dashboard-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and request streams")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from an in-process traced replay")
	flag.StringVar(&cfg.mdserve, "mdserve", "", "mdserve binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory inside the checkout")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.mdserve == "" || cfg.work == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need -mdserve, -work, -seconds ≥ 1 and -trace 0|1 (run via run.sh)")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// dataSets is how many distinct generated data sets the seeds map onto.
// The request streams follow the full seed; the data follows it modulo
// dataSets, so the algebra oracle (tens of seconds per data set) is paid
// once per data set and build rather than on every run.
const dataSets = 4

func dataSeed(seed int64) int64 {
	return 1 + (seed%dataSets+dataSets)%dataSets
}

// report collects the human-readable lines printed before the result.
type report struct{ lines []string }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func run(cfg config) (*result, error) {
	wl := workloads[cfg.workload]
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have adhoc-grouped, dashboard-hot)", cfg.workload)
	}
	workers := min(2, runtime.NumCPU())
	rep := &report{}
	defer func() {
		for _, l := range rep.lines {
			fmt.Println(l)
		}
	}()
	data := dataSeed(cfg.seed)
	rep.printf("workload %s seed %d: %d closed-loop connections, %ds window, %d facts generated with seed %d",
		wl.name, cfg.seed, workers, cfg.seconds, facts, data)
	phases := &phaseClock{last: time.Now()}
	defer func() { rep.printf("phases: %s", phases) }()

	defined, err := definedFlags(cfg.mdserve)
	if err != nil {
		return nil, err
	}
	args := argv(serverFlags(data), defined, rep.printf)
	runDir := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	want, err := oracle(cfg.work, data)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	phases.mark("oracle")

	ctx := context.Background()
	checks := newTally() // answer checks outside the timed window
	check := httpClient()
	checkQuery := func(base, q string, want answer) error {
		status, _, body, err := get(ctx, check, base+"/query?nocache=1&q="+url.QueryEscape(q))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		return sameAnswer(body, want)
	}

	// Setup: start → first correct answer, several times; the last
	// server stays up for the run.
	var setups []float64
	var srv *server
	dataDir := ""
	for i := 0; i < setupBoots; i++ {
		dataDir = filepath.Join(runDir, fmt.Sprintf("data%d", i))
		s, err := startServer(cfg.mdserve, args, dataDir)
		if err != nil {
			return nil, err
		}
		d, err := s.waitFor(bootLimit, func() error { return checkQuery(s.base, oracleQueries[0], want[0]) })
		if err != nil {
			s.kill()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		check.CloseIdleConnections()
		if i < setupBoots-1 {
			s.kill()
			_ = os.RemoveAll(dataDir)
		} else {
			srv = s
		}
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	phases.mark("setup")

	// The algebra oracle, before timing.
	for i, q := range oracleQueries {
		checks.attempts++
		if err := checkQuery(srv.base, q, want[i]); err != nil {
			checks.fail("oracle %s: %v", q, err)
		}
	}
	check.CloseIdleConnections()

	// Warm-up: the same mix on streams of its own, untimed, so the cold
	// misses and the first fold after start-up, which a long-running
	// server pays once, stay out of the window.
	warm, _ := closedLoop(time.Now(), srv.base, wl, cfg.seed, workers, workers, warmup)
	checks.merge(warm)

	before, err := fetchProm(check, srv.base)
	if err != nil {
		return nil, err
	}
	check.CloseIdleConnections()
	phases.mark("checks")
	start := time.Now()
	readings := srv.sampleWindow(start, cfg.seconds)
	timed, elapsed := closedLoop(start, srv.base, wl, cfg.seed, 0, workers, time.Duration(cfg.seconds)*time.Second)
	marks, err := readings()
	if err != nil {
		return nil, err
	}
	phases.mark("timed")
	after, err := fetchProm(check, srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	mech := diffProm(before, after)

	// Every hot query's cached or upgraded answer equals a recompute.
	for _, q := range wl.hot {
		checks.attempts++
		status, _, body, err := get(ctx, check, srv.base+queryOp(q).path)
		if err != nil || status != http.StatusOK {
			checks.fail("hot %s: status %d %v", q, status, err)
			continue
		}
		fresh, err := decodeAnswer(body)
		if err != nil {
			checks.fail("hot %s: %v", q, err)
			continue
		}
		if err := checkQuery(srv.base, q, fresh); err != nil {
			checks.fail("hot %s: cached answer differs from nocache recompute: %v", q, err)
		}
	}

	// A write-free mix measures append latency on a sequential probe.
	probe := newTally()
	if wl.probeAppends > 0 {
		for _, o := range probeOps(wl, cfg.seed) {
			probe.do(ctx, check, srv.base, o)
		}
	}
	acked := append(append(append([]string(nil), warm.acked...), timed.acked...), probe.acked...)

	phases.mark("checks")

	// Durability: kill -9, restart on the same data directory, and time
	// until the first correct answer with every acknowledged append
	// visible.
	srv.kill()
	check.CloseIdleConnections()
	wantCount := answer{Columns: []string{"SETCOUNT"}, Rows: [][]string{{strconv.Itoa(facts + len(acked))}}}
	if srv, err = startServer(cfg.mdserve, args, dataDir); err != nil {
		return nil, err
	}
	recoverDur, err := srv.waitFor(bootLimit, func() error {
		return checkQuery(srv.base, "SELECT SETCOUNT(*) FROM patients", wantCount)
	})
	checks.attempts++
	if err != nil {
		checks.fail("recovery: %v", err)
	} else if missing, err := missingFacts(ctx, check, srv.base, acked); err != nil {
		checks.fail("recovery: %v", err)
	} else if len(missing) > 0 {
		checks.fail("recovery: %d acknowledged appends lost, e.g. %s", len(missing), missing[0])
	}

	phases.mark("recovery")
	checks.merge(probe)
	secs := bySecond(timed.done, marks, cfg.seconds)
	qt := summarize(timed.queryMs)
	queryTail := groupedTail(secs, false)
	at := summarize(timed.appendMs)
	appendTail := groupedTail(secs, true)
	if wl.probeAppends > 0 {
		at = summarize(probe.appendMs)
		appendTail = at.Tail
	}
	ops := len(timed.done)
	cpuPerOp := float64((marks[cfg.seconds].cpu - marks[0].cpu).Microseconds()) / float64(max(ops, 1))
	var sl []string
	for _, s := range secs {
		sl = append(sl, fmt.Sprintf("%d/%.0f/%.0f%%", s.ops, float64(s.cpu.Microseconds())/float64(max(s.ops, 1)), 100*s.steal))
	}
	res := &result{
		Attempted: timed.attempts + checks.attempts,
		Failed:    timed.failures + checks.failures,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	rep.printf("setup_s per start: %v; recover_s %.3f", setups, recoverDur.Seconds())
	rep.printf("queries: %d (p50 %.3f ms, p%.2f %.3f ms, query_p99_ms as the grouped tail %.3f ms)", qt.N, qt.P50, qt.Pct, qt.Tail, queryTail)
	rep.printf("throughput_ops: %.1f ops/s (%d ops in %.3f s)", float64(ops)/elapsed.Seconds(), ops, elapsed.Seconds())
	rep.printf("appends: %d%s (p50 %.3f ms, p%.2f %.3f ms, grouped tail %.3f ms)",
		at.N, map[bool]string{true: " from the sequential probe", false: ""}[wl.probeAppends > 0], at.P50, at.Pct, at.Tail, appendTail)
	rep.printf("error_rate %.6f (%d failed of %d attempted)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, e := range append(timed.errors, checks.errors...) {
		rep.printf("failure: %s", e)
	}
	rep.printf("response headers: %v", fmtCounts(timed.headers))
	rep.printf("per second, ops/server CPU us per op/host steal: %s", strings.Join(sl, " "))
	mechanismReport(rep, mech)

	if !cfg.trace {
		return res, res.take(endToEnd, map[string]float64{
			"query_p50_ms":         qt.P50,
			"server_cpu_us_per_op": cpuPerOp,
			"setup_s":              median(setups),
			"recover_s":            recoverDur.Seconds(),
			"rss_peak_mb":          rss,
		})
	}

	srv.kill()
	traceOps := interleave(wl, cfg.seed, workers, wl.traceOps)
	if wl.probeAppends > 0 {
		traceOps = append(traceOps, probeOps(wl, cfg.seed)...)
	}
	defer phases.mark("traced")
	layers, notes, err := tracedRun(runDir, filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, cfg.seed)), data, traceOps, want[0], qt.P50)
	for _, n := range notes {
		rep.printf("%s", n)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range layerMetricsFromScrape(mech, elapsed, workers) {
		layers[k] = v
	}
	return res, res.take(perLayer, layers)
}

// take copies the listed metrics from values into the result; a listed
// metric without a value is a bug in the benchmark.
func (r *result) take(list []layerMetric, values map[string]float64) error {
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s not computed", m.name)
		}
		r.Metrics[m.name] = metric{v, m.unit}
	}
	return nil
}

// missingFacts lists the acknowledged fact ids a FACTS listing lacks.
func missingFacts(ctx context.Context, c *http.Client, base string, acked []string) ([]string, error) {
	status, _, body, err := get(ctx, c, base+"/query?nocache=1&q="+url.QueryEscape("SELECT FACTS FROM patients"))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("FACTS listing: status %d: %.200s", status, body)
	}
	a, err := decodeAnswer(body)
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(a.Rows))
	for _, r := range a.Rows {
		if len(r) > 0 {
			have[r[0]] = true
		}
	}
	var missing []string
	for _, id := range acked {
		if !have[id] {
			missing = append(missing, id)
		}
	}
	return missing, nil
}

func fmtCounts(m map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// phaseClock records how long each phase of a run took, for the report.
type phaseClock struct {
	last  time.Time
	parts []string
}

func (p *phaseClock) mark(name string) {
	now := time.Now()
	p.parts = append(p.parts, fmt.Sprintf("%s %.1fs", name, now.Sub(p.last).Seconds()))
	p.last = now
}

func (p *phaseClock) String() string { return strings.Join(p.parts, ", ") }

// sortedKeys lists a set's members in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
