package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSummarizePercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p50, tail float64
		pct       float64
	}{
		// 2000 samples: p99 is rank 1980, with 20 samples beyond it.
		{n: 2000, p50: 1000, tail: 1980, pct: 99},
		// 1000 samples: rank 990 leaves exactly 10 beyond.
		{n: 1000, p50: 500, tail: 990, pct: 99},
		// 500 samples: rank 495 would leave 5; fall back to rank 490 (p98).
		{n: 500, p50: 250, tail: 490, pct: 98},
		// 11 samples: only rank 1 leaves 10 beyond.
		{n: 11, p50: 6, tail: 1, pct: 100.0 / 11},
		// 10 samples: no percentile has 10 beyond; the median stands in.
		{n: 10, p50: 5, tail: 5, pct: 50},
	} {
		got := summarize(seq(tc.n))
		if got.N != tc.n || got.P50 != tc.p50 || got.Tail != tc.tail || got.Pct < tc.pct-1e-9 || got.Pct > tc.pct+1e-9 {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", tc.n, got, tc.p50, tc.tail, tc.pct)
		}
	}
	if got := summarize(nil); got.N != 0 {
		t.Errorf("empty: %+v", got)
	}
	if got := median([]float64{3.3, 1.1, 2.2}); got != 2.2 {
		t.Errorf("median = %v", got)
	}
}

const promBefore = `# HELP mddm_cache_hits_total Result-cache hits.
# TYPE mddm_cache_hits_total counter
mddm_cache_hits_total 10
mddm_plan_queries_total{mode="planned"} 5
mddm_plan_queries_total{mode="fallback"} 0
mddm_delta_fallbacks_total{layer="result-cache",reason="gen-moved"} 1
mddm_exec_merge_wait_seconds_total 0.5
`

const promAfter = `mddm_cache_hits_total 25
mddm_plan_queries_total{mode="planned"} 45
mddm_plan_queries_total{mode="fallback"} 2
mddm_delta_fallbacks_total{layer="result-cache",reason="gen-moved"} 1
mddm_delta_fallbacks_total{layer="result-cache",reason="no partials"} 3
mddm_exec_merge_wait_seconds_total 1.25
`

func TestPromParseAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := diffProm(before, after)
	if v, ok := d.sum("mddm_cache_hits_total"); !ok || v != 15 {
		t.Errorf("hits delta = %v %v", v, ok)
	}
	if v, ok := d.sum("mddm_plan_queries_total"); !ok || v != 42 {
		t.Errorf("plan queries delta = %v %v", v, ok)
	}
	if v, ok := d.get(`mddm_plan_queries_total{mode="fallback"}`); !ok || v != 2 {
		t.Errorf("fallback delta = %v %v", v, ok)
	}
	// A series new since the first scrape started at zero; a label value
	// with a space still parses.
	by := d.byLabel("mddm_delta_fallbacks_total")
	if by[`{layer="result-cache",reason="no partials"}`] != 3 || by[`{layer="result-cache",reason="gen-moved"}`] != 0 {
		t.Errorf("fallbacks by reason = %v", by)
	}
	if v, _ := d.sum("mddm_exec_merge_wait_seconds_total"); v != 0.75 {
		t.Errorf("merge wait delta = %v", v)
	}
	// A metric the program no longer exports is absent, not zero.
	if _, ok := d.sum("mddm_cache_upgrades_total"); ok {
		t.Error("absent metric reported present")
	}
	if got := ratio(1, 0, true, true); got != 0 {
		t.Errorf("ratio over zero = %v", got)
	}
	if _, err := parseProm(strings.NewReader("mddm_x_total notanumber\n")); err == nil {
		t.Error("malformed value parsed")
	}
	if _, err := parseProm(strings.NewReader("garbage\n")); err == nil {
		t.Error("line without a value parsed")
	}
}

func TestMechanismReportShowsAbsentSeries(t *testing.T) {
	after, _ := parseProm(strings.NewReader(promAfter))
	rep := &report{}
	mechanismReport(rep, diffProm(scrape{}, after))
	all := strings.Join(rep.lines, "\n")
	for _, want := range []string{"mddm_cache_hits_total=25", "mddm_cache_upgrades_total=absent", "mddm_segment_folds_total=absent"} {
		if !strings.Contains(all, want) {
			t.Errorf("report lacks %q:\n%s", want, all)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Req: 1, Name: "query.key", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Req: 1, Name: "plan.prepare", Start: ms(20), End: ms(50)},
		// Overlaps plan.prepare by 10ms: covered time counts once.
		{ID: 4, Parent: 1, Req: 1, Name: "plan.execute", Start: ms(40), End: ms(80)},
		{ID: 5, Parent: 4, Req: 1, Name: "plan.kernel", Start: ms(45), End: ms(55)},
		// A child running past its parent is clipped to the parent.
		{ID: 6, Parent: 2, Req: 1, Name: "query.parse", Start: ms(5), End: ms(15)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(30), 2: ms(5), 3: ms(30), 4: ms(30), 5: ms(10), 6: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["plan"] != ms(70) || layers["query"] != ms(15) || layers["request"] != ms(30) {
		t.Errorf("layer self times = %v", layers)
	}
	if got := durationsUS(spans, "plan.prepare", ""); len(got) != 1 || got[0] != 30000 {
		t.Errorf("durations = %v", got)
	}
}

func TestTracerRecordsNothingWhenOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("request", 0, 1)
	tr.setAttr(id, "x")
	tr.end(id)
	on := newTracer()
	root := on.begin("request", 0, 7)
	kid := on.begin("query.key", root, 7)
	on.end(kid)
	on.setAttr(root, "outcome=hit")
	on.end(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[0].Attr != "outcome=hit" || on.spans[0].End < on.spans[1].End {
		t.Errorf("spans = %+v", on.spans)
	}
}

func TestOracleComparison(t *testing.T) {
	want := answer{Columns: []string{"Diagnosis", "SETCOUNT"}, Rows: [][]string{{"G0", "59939"}, {"G1", "59654"}}}
	served := `{"columns":["Diagnosis","SETCOUNT"],"rows":[["G0","59939"],["G1","59654"]],"summarizable":false,"reasons":["non-strict"]}`
	if err := sameAnswer([]byte(served), want); err != nil {
		t.Errorf("identical rows: %v", err)
	}
	for name, body := range map[string]string{
		"value":   `{"columns":["Diagnosis","SETCOUNT"],"rows":[["G0","59939"],["G1","59655"]]}`,
		"order":   `{"columns":["Diagnosis","SETCOUNT"],"rows":[["G1","59654"],["G0","59939"]]}`,
		"missing": `{"columns":["Diagnosis","SETCOUNT"],"rows":[["G0","59939"]]}`,
		"header":  `{"columns":["Diagnosis","COUNT"],"rows":[["G0","59939"],["G1","59654"]]}`,
	} {
		err := sameAnswer([]byte(body), want)
		var mm *mismatchError
		if !errors.As(err, &mm) {
			t.Errorf("%s: want a mismatch, got %v", name, err)
		}
	}
	// No rows at all: the planner and the algebra both encode null.
	if err := sameAnswer([]byte(`{"columns":["SUM"],"rows":null}`), answer{Columns: []string{"SUM"}}); err != nil {
		t.Errorf("empty rows: %v", err)
	}
	// An error body is not an answer, and not a mismatch either.
	err := sameAnswer([]byte(`{"error":"boom"}`), want)
	var mm *mismatchError
	if err == nil || errors.As(err, &mm) {
		t.Errorf("error body: %v", err)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, wl := range workloads {
		a := interleave(wl, 7, 2, 50)
		b := interleave(wl, 7, 2, 50)
		c := interleave(wl, 8, 2, 50)
		same, differ := true, false
		ids := map[string]bool{}
		for i := range a {
			same = same && a[i].q == b[i].q && a[i].fact == b[i].fact && string(a[i].body) == string(b[i].body)
			differ = differ || a[i].q != c[i].q || string(a[i].body) != string(c[i].body)
			if a[i].append {
				if ids[a[i].fact] {
					t.Errorf("%s: fact id %s repeats", name, a[i].fact)
				}
				ids[a[i].fact] = true
			}
		}
		if !same || !differ {
			t.Errorf("%s: same seed same stream %v, other seed other stream %v", name, same, differ)
		}
	}
}

func TestArgvDropsUndefinedFlags(t *testing.T) {
	var logged []string
	logf := func(f string, a ...any) { logged = append(logged, f) }
	got := argv([]flagSpec{{"gen", "10"}, {"planner", ""}, {"delta", ""}}, map[string]bool{"gen": true, "delta": true}, logf)
	if strings.Join(got, " ") != "-gen 10 -delta" || len(logged) != 1 {
		t.Errorf("argv = %v, logged %v", got, logged)
	}
}

func TestBenchmarkJSONListsTheMetricsPrinted(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the benchmark", w.Name)
		}
	}
}

func TestSecondsAndGroupedTail(t *testing.T) {
	const n = 5
	var evs []event
	for sec := 0; sec < n; sec++ {
		for i := 0; i < 1000; i++ {
			ms := 1.0
			if sec == 2 {
				ms = 50 // a fold or a GC pause during the third second
			}
			evs = append(evs, event{at: time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond, ms: ms})
		}
	}
	// One append, finishing after the window closed, lands in the last second.
	evs = append(evs, event{at: n*time.Second + time.Millisecond, ms: 9, append: true})
	marks := make([]mark, n+1)
	for i := range marks {
		marks[i] = mark{cpu: time.Duration(i) * 1500 * time.Millisecond, steal: 0.01 * float64(i)}
	}
	secs := bySecond(evs, marks, n)
	if secs[0].ops != 1000 || secs[4].ops != 1001 || len(secs[4].appendMs) != 1 || secs[1].cpu != 1500*time.Millisecond {
		t.Fatalf("seconds = %+v", secs)
	}
	if got := groupedTail(secs, false); got != 1 {
		t.Errorf("grouped query tail = %v, want 1", got)
	}
	if got := summarize(pooled(secs, false)).Tail; got != 50 {
		t.Errorf("pooled tail = %v, want 50", got)
	}
	// Too few samples for more than one group: the plain tail.
	if got := groupedTail(secs, true); got != 9 {
		t.Errorf("append tail = %v, want 9", got)
	}
}
