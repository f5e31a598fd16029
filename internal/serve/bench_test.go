package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mddm/internal/batch"
	"mddm/internal/casestudy"
)

// servedFoldFacts is the fact count BenchmarkServedGroupFold runs at —
// the scale of mdserve -gen 100000.
const servedFoldFacts = 100_000

var (
	servedFoldOnce sync.Once
	servedFoldSrv  *Server
	servedFoldErr  error
)

// servedFoldServer builds, once per test binary, a server over the
// generated 100k-patient MO with the planner, result cache, delta
// maintenance and shared-scan batching on. The result cache is too small
// to keep any entry (each of its shards holds one byte), so every request
// takes the miss path with delta capture installed — the path grouped
// traffic that misses the cache takes. MaxBatch 1 launches each query's
// fused scan at once (no gather-window wait in the timing), and degree 1
// keeps the figures independent of the core count.
func servedFoldServer(b *testing.B) *Server {
	b.Helper()
	servedFoldOnce.Do(func() {
		cfg := casestudy.DefaultGen()
		cfg.Patients = servedFoldFacts
		m, err := casestudy.Generate(cfg)
		if err != nil {
			servedFoldErr = err
			return
		}
		cat := NewCatalog()
		if err := cat.Register("patients", m); err != nil {
			servedFoldErr = err
			return
		}
		s := NewServer(cat, Limits{
			Parallelism:      1,
			ColumnMinValues:  16,
			ResultCacheBytes: 16,
			Planner:          true,
			DeltaMaintenance: true,
			Batching:         batch.Config{Enabled: true, MaxBatch: 1, MaxParallelism: 1},
		}, testRef)
		if _, err := s.EngineFor(context.Background(), "patients"); err != nil {
			servedFoldErr = err
			return
		}
		servedFoldSrv = s
	})
	if servedFoldErr != nil {
		b.Fatal(servedFoldErr)
	}
	return servedFoldSrv
}

// BenchmarkServedGroupFold times one served grouped query through
// ServeQuery at 100k facts: cache lookup, delta capture, batch
// scheduling, fused scan and finish. The first sub-benchmarks vary the
// aggregate over one WHERE (the group-fold plan shape); the where=
// sub-benchmarks hold AVG fixed and vary the WHERE over the kinds the
// adhoc traffic mix draws from. Run with -benchmem for B/op and
// allocs/op.
func BenchmarkServedGroupFold(b *testing.B) {
	s := servedFoldServer(b)
	for _, fn := range []string{"SUM(Age)", "COUNT(Age)", "AVG(Age)", "MIN(Age)", "MAX(Age)", "SETCOUNT(*)"} {
		src := fmt.Sprintf(`SELECT %s FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Diagnosis Family"`, fn)
		b.Run(fn, func(b *testing.B) { benchServed(b, s, src) })
	}
	for _, w := range []struct{ name, where string }{
		{"none", ""},
		{"Age>=", " WHERE Age >= 40"},
		{"Age<", " WHERE Age < 30"},
		{"Residence=", " WHERE Residence = 'C1'"},
		{"DiagnosisIN", " WHERE Diagnosis IN ('G1','F3','L7')"},
	} {
		src := `SELECT AVG(Age) FROM patients` + w.where + ` GROUP BY Diagnosis."Diagnosis Family"`
		b.Run("where="+w.name, func(b *testing.B) { benchServed(b, s, src) })
	}
}

// benchServed times src through ServeQuery, requiring every request to
// miss the cache and return rows.
func benchServed(b *testing.B, s *Server, src string) {
	ctx := context.Background()
	// Warm the closures, columns and argument column once.
	if _, out, err := s.ServeQuery(ctx, src); err != nil || out.CacheHit {
		b.Fatalf("warm-up: err %v, cache hit %v", err, out.CacheHit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, out, err := s.ServeQuery(ctx, src)
		if err != nil || out.CacheHit || len(res.Rows) == 0 {
			b.Fatalf("err %v, cache hit %v, %d rows", err, out.CacheHit, len(res.Rows))
		}
	}
}
