package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"mddm/internal/admission"
	"mddm/internal/batch"
	"mddm/internal/cache"
	"mddm/internal/dimension"
	"mddm/internal/plan"
	"mddm/internal/query"
	"mddm/internal/segment"
	"mddm/internal/serve"
)

// The traced run replays a workload's request stream in-process through
// the layers a served request passes, calling each layer's public
// functions with a span around the call:
//
//	request ─┬─ query.key          cache.QueryKey
//	         ├─ serve.serve_query  (*serve.Server).ServeQuery, outcome=hit|upgraded|miss
//	         └─ serve.encode       json.Marshal of the response
//	request ── serve.append        (*serve.Server).Append
//
// ServeQuery decides hit, delta upgrade or computation inside the
// server, where the benchmark adds no spans. So the queries it computed
// are replayed once more afterwards on the same engine through the
// planner's own entry points, as computed requests:
//
//	request ─┬─ query.key
//	         ├─ plan.prepare       plan.PrepareContext, shape=…
//	         ├─ plan.execute       (*plan.Prepared).Execute
//	         └─ serve.encode
//
// Setup gets setup.generate (casestudy.Generate), setup.engine_build
// (segment.Open + (*segment.Store).Recover) and setup.columns
// ((*storage.Engine).WarmColumns), as mdserve -data builds its engine.

// planPassCap bounds the computed queries the plan pass replays.
const planPassCap = 150

// limits mirrors the mdserve flags of serverFlags.
func limits() serve.Limits {
	return serve.Limits{
		Timeout:          5 * time.Second,
		MaxFactsScanned:  10_000_000,
		Parallelism:      2,
		ColumnMinValues:  columnsMin,
		ResultCacheBytes: cacheBytes,
		Planner:          true,
		DeltaMaintenance: true,
		Batching: batch.Config{
			Enabled: true, GatherWindow: 2 * time.Millisecond, MaxBatch: 32, MaxParallelism: 2,
		},
		Admission: admission.Config{
			MaxConcurrency: 4, MinConcurrency: 1, TargetLatency: 100 * time.Millisecond,
		},
	}
}

// env is one in-process serving stack.
type env struct {
	srv *serve.Server
	cat *serve.Catalog
	st  *segment.Store
}

// setupEnv builds the stack on a fresh data directory and answers the
// setup probe query, recording the setup spans on tr.
func setupEnv(tr *tracer, seed int64, dir string, probe answer) (*env, error) {
	ctx := context.Background()
	id := tr.begin("setup.generate", 0, 0)
	m, err := generate(facts, seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("setup.engine_build", 0, 0)
	st, err := segment.Open(dir, m, segment.Options{Sync: true, FoldEvery: 1024})
	if err != nil {
		return nil, err
	}
	eng, err := st.Recover(ctx, dimension.CurrentContext(refDate))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("setup.columns", 0, 0)
	err = eng.WarmColumns(ctx, columnsMin)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cat := serve.NewCatalog()
	srv := serve.NewServer(cat, limits(), refDate)
	if err := srv.AttachStore(moName, st); err != nil {
		return nil, err
	}
	id = tr.begin("setup.first_query", 0, 0)
	res, _, err := srv.ServeQuery(ctx, oracleQueries[0])
	tr.end(id)
	if err != nil {
		return nil, err
	}
	b, _ := json.Marshal(answer{Columns: res.Columns, Rows: res.Rows})
	if err := sameAnswer(b, probe); err != nil {
		return nil, fmt.Errorf("in-process setup probe: %w", err)
	}
	return &env{srv: srv, cat: cat, st: st}, nil
}

// wire is the JSON shape of a /query answer, for serve.encode.
type wire struct {
	Columns      []string   `json:"columns"`
	Rows         [][]string `json:"rows"`
	Summarizable bool       `json:"summarizable"`
	Reasons      []string   `json:"reasons,omitempty"`
	Warnings     []string   `json:"warnings,omitempty"`
}

func encode(res *query.Result) {
	_, _ = json.Marshal(wire{res.Columns, res.Rows, res.Summarizable, res.Reasons, res.Warnings})
}

func (o op) record() segment.FactAppend {
	rec := segment.FactAppend{FactID: o.fact}
	for _, p := range o.pairs {
		rec.Pairs = append(rec.Pairs, segment.Pair{Dim: p[0], Value: p[1], Annot: dimension.Always()})
	}
	return rec
}

// replayStats is what one replay measured besides its spans.
type replayStats struct {
	serveWall, planWall time.Duration
	ops, planQueries    int
	gcCPUFraction       float64
	gcCyclesPerKop      float64
	allocsPerPlan       float64
	failures            []string
}

// runtimeSample reads the runtime counters the replay reports.
type runtimeSample struct{ gcCPU, totalCPU, cycles, allocs float64 }

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value)}
}

// replay runs ops through e, then the plan pass over the queries the
// server computed.
func replay(e *env, tr *tracer, ops []op) replayStats {
	ctx := context.Background()
	var st replayStats
	fail := func(format string, args ...any) {
		if len(st.failures) < 5 {
			st.failures = append(st.failures, fmt.Sprintf(format, args...))
		}
	}
	var computed []string
	r0 := sampleRuntime()
	start := time.Now()
	for k, o := range ops {
		req := int64(k + 1)
		root := tr.begin("request", 0, req)
		if o.append {
			id := tr.begin("serve.append", root, req)
			_, err := e.srv.Append(moName, o.record())
			tr.end(id)
			if err != nil {
				fail("append %s: %v", o.fact, err)
			}
			tr.end(root)
			continue
		}
		id := tr.begin("query.key", root, req)
		_, _, kerr := cache.QueryKey(o.q)
		tr.end(id)
		id = tr.begin("serve.serve_query", root, req)
		res, out, err := e.srv.ServeQuery(ctx, o.q)
		tr.end(id)
		outcome := "miss"
		switch {
		case out.Upgraded:
			outcome = "upgraded"
		case out.CacheHit:
			outcome = "hit"
		}
		tr.setAttr(id, "outcome="+outcome)
		if err != nil || kerr != nil {
			fail("query %s: %v %v", o.q, err, kerr)
			tr.end(root)
			continue
		}
		id = tr.begin("serve.encode", root, req)
		encode(res)
		tr.end(id)
		tr.end(root)
		if outcome == "miss" && len(computed) < planPassCap {
			computed = append(computed, o.q)
		}
	}
	st.serveWall = time.Since(start)
	st.ops = len(ops)
	r1 := sampleRuntime()
	if d := r1.totalCPU - r0.totalCPU; d > 0 {
		st.gcCPUFraction = (r1.gcCPU - r0.gcCPU) / d
	}
	st.gcCyclesPerKop = (r1.cycles - r0.cycles) / (float64(len(ops)) / 1000)

	start = time.Now()
	for k, q := range computed {
		req := int64(len(ops) + k + 1)
		root := tr.begin("request", 0, req)
		id := tr.begin("query.key", root, req)
		_, _, _ = cache.QueryKey(q) // keyed fine in the serve replay
		tr.end(id)
		pctx, _ := plan.WithCapture(ctx)
		pctx, ex := plan.WithExplain(pctx)
		pid := tr.begin("plan.prepare", root, req)
		p, err := plan.PrepareContext(pctx, q, e.cat.Snapshot(), refDate, e.srv)
		tr.end(pid)
		if err != nil {
			fail("prepare %s: %v", q, err)
			tr.end(root)
			continue
		}
		xid := tr.begin("plan.execute", root, req)
		res, err := p.Execute()
		tr.end(xid)
		tr.setAttr(pid, "shape="+ex.Shape)
		tr.setAttr(xid, "shape="+ex.Shape)
		if err != nil {
			fail("execute %s: %v", q, err)
			tr.end(root)
			continue
		}
		id = tr.begin("serve.encode", root, req)
		encode(res)
		tr.end(id)
		tr.end(root)
	}
	st.planWall = time.Since(start)
	st.planQueries = len(computed)
	r2 := sampleRuntime()
	if len(computed) > 0 {
		st.allocsPerPlan = (r2.allocs - r1.allocs) / float64(len(computed))
	}
	return st
}

// tracedRun replays ops twice on fresh stacks under work, once without
// and once with spans, writes the spans to spansPath, and returns the
// per-layer metrics. clientP50ms is the served run's query p50, for the
// HTTP share.
func tracedRun(work, spansPath string, seed int64, ops []op, probe answer, clientP50ms float64) (map[string]float64, []string, error) {
	run := func(tr *tracer, dir string) (replayStats, float64, error) {
		e, err := setupEnv(tr, seed, dir, probe)
		if err != nil {
			return replayStats{}, 0, err
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB := float64(ms.HeapAlloc) / (1 << 20)
		st := replay(e, tr, ops)
		if err := e.st.Close(); err != nil {
			return st, heapMB, fmt.Errorf("closing in-process store: %w", err)
		}
		return st, heapMB, nil
	}
	plain, _, err := run(nil, filepath.Join(work, "inproc-plain"))
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	tr := newTracer()
	traced, heapMB, err := run(tr, filepath.Join(work, "inproc-traced"))
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, nil, err
	}
	sp := tr.spans

	m := map[string]float64{}
	p50 := func(name, attr string) float64 { return summarize(durationsUS(sp, name, attr)).P50 }
	m["serve.http_us"] = clientP50ms*1000 - p50("serve.serve_query", "")
	m["serve.encode_us"] = p50("serve.encode", "")
	m["query.key_us"] = p50("query.key", "")
	m["cache.hit_us"] = p50("serve.serve_query", "outcome=hit")
	m["cache.upgrade_us"] = p50("serve.serve_query", "outcome=upgraded")
	for _, shape := range []string{plan.ShapeKernelCount, plan.ShapeKernelSum, plan.ShapeGroupFold} {
		m["plan.prepare_us."+shape] = p50("plan.prepare", "shape="+shape)
		m["plan.execute_us."+shape] = p50("plan.execute", "shape="+shape)
	}
	m["plan.allocs_per_query"] = plain.allocsPerPlan
	app := summarize(durationsUS(sp, "serve.append", ""))
	m["segment.append_us.p50"], m["segment.append_us.p99"] = app.P50, app.Tail
	for _, s := range []struct{ metric, span string }{
		{"setup.generate_s", "setup.generate"},
		{"setup.engine_build_s", "setup.engine_build"},
		{"setup.columns_s", "setup.columns"},
		{"setup.first_query_ms", "setup.first_query"},
	} {
		v, err := spanSeconds(sp, s.span)
		if err != nil {
			return nil, nil, err
		}
		if s.span == "setup.first_query" {
			v *= 1000
		}
		m[s.metric] = v
	}
	m["storage.live_heap_mb"] = heapMB
	m["gc.cpu_fraction"] = plain.gcCPUFraction
	m["gc.cycles_per_kop"] = plain.gcCyclesPerKop
	self := layerSelf(sp)
	for _, l := range traceLayers {
		m["self_ms."+l] = float64(self[l]) / 1e6
	}
	plainWall := plain.serveWall + plain.planWall
	m["trace.overhead_pct"] = 100 * float64(traced.serveWall+traced.planWall-plainWall) / float64(plainWall)

	notes := []string{fmt.Sprintf("traced run: %d ops + %d computed queries replayed; untraced %.3fs, traced %.3fs",
		traced.ops, traced.planQueries, plainWall.Seconds(), (traced.serveWall + traced.planWall).Seconds())}
	var failures []string
	failures = append(failures, plain.failures...)
	failures = append(failures, traced.failures...)
	for _, f := range failures {
		notes = append(notes, "traced run failure: "+f)
	}
	if len(failures) > 0 {
		return m, notes, fmt.Errorf("traced run: %d failures", len(failures))
	}
	return m, notes, nil
}

// traceLayers are the span layers whose self time is reported.
var traceLayers = []string{"request", "query", "serve", "plan", "setup"}
