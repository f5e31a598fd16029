package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// numericScan is the numeric WHERE's per-fact definition (the algebra's
// NumericCmp): fact i is selected when some admitted value of the fact in
// dim has a number x with x op k.
func numericScan(t *testing.T, m *core.MO, eng *storage.Engine, dim, op string, k float64) []int {
	t.Helper()
	cmp, err := query.CmpOp(op)
	if err != nil {
		t.Fatal(err)
	}
	d, r, ectx := m.Dimension(dim), m.Relation(dim), eng.Context()
	var out []int
	for i := 0; i < eng.NumFacts(); i++ {
		f := eng.FactID(i)
		for _, v := range r.ValuesOf(f) {
			a, _ := r.Annot(f, v)
			if x, ok := d.Numeric(v, ectx); ok && ectx.Admits(a) && cmp.Holds(x, k) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// TestNumericWhereMatchesScan checks the numeric WHERE compile (a union
// of value bitmaps) against the per-fact scan for every comparison
// operator, on facts with several annotated ages, under current,
// valid-instant, transaction-instant and MinProb contexts, before and
// after appends.
func TestNumericWhereMatchesScan(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 150
	m := casestudy.MustGenerate(cfg)
	r := rand.New(rand.NewSource(9))
	epoch := temporal.MustDate("01/01/1985")
	annot := func() dimension.Annot {
		span := func() temporal.Element {
			start := epoch + temporal.Chronon(r.Intn(4000))
			return temporal.NewElement(temporal.MustNewInterval(start, start+temporal.Chronon(30+r.Intn(3000))))
		}
		a := dimension.Always()
		switch r.Intn(3) {
		case 0:
			a.Time = temporal.ValidOnly(span())
		case 1:
			a.Time = temporal.TransOnly(span())
		}
		return a.WithProb([]float64{1, 0.95, 0.6}[r.Intn(3)])
	}
	// addAges gives fact id extra ages with random annotations, so facts
	// are multi-valued in the measure dimension and contexts disagree.
	addAges := func(id string, n int) {
		for j := 0; j < n; j++ {
			ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), r.Intn(100))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RelateAnnot(casestudy.DimAge, id, ageID, annot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < cfg.Patients; p += 2 {
		addAges(fmt.Sprintf("p%d", p), 1+r.Intn(3))
	}
	cur := dimension.CurrentContext(testRef)
	ctxs := map[string]dimension.Context{
		"current":    cur,
		"valid 1990": cur.AtValid(temporal.MustDate("01/06/1990")),
		"trans 1990": cur.AtTrans(temporal.MustDate("01/06/1990")),
		"minprob .9": cur.WithMinProb(0.9),
	}
	engs := map[string]*storage.Engine{}
	for name, ectx := range ctxs {
		engs[name] = storage.NewEngine(m, ectx)
	}
	check := func(stage string) {
		t.Helper()
		for name, eng := range engs {
			for _, op := range []string{"<", "<=", ">", ">=", "=", "<>", "!="} {
				for _, k := range []float64{-1, 0, 17, 40, 40.5, 65, 99, 100} {
					c := query.CondNode{Dim: casestudy.DimAge, Op: op, NumVal: k, IsNum: true}
					bm, err := compileCondBitmap(context.Background(), c, m, eng, eng.Context())
					if err != nil {
						t.Fatal(err)
					}
					want := numericScan(t, m, eng, casestudy.DimAge, op, k)
					if got := bm.Indices(); fmt.Sprint(got) != fmt.Sprint(want) || bm.Len() != eng.NumFacts() {
						t.Fatalf("%s %s: Age %s %v selects %v of %d, scan %v", stage, name, op, k, got, bm.Len(), want)
					}
				}
			}
		}
	}
	check("built")
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("late%d", i)
		addAges(id, 1+r.Intn(3))
		for _, dim := range []string{casestudy.DimDiagnosis, casestudy.DimResidence} {
			if err := m.Relate(dim, id, dimension.TopValue); err != nil {
				t.Fatal(err)
			}
		}
		for _, eng := range engs {
			if err := eng.AppendFact(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after appends")
}

// orphanArea re-registers a copy of m whose Residence dimension has one
// more area with no county above it, so Area no longer covers County.
func orphanArea(t *testing.T, m *core.MO) *core.MO {
	t.Helper()
	c := m.Clone()
	if err := c.Dimension(casestudy.DimResidence).AddValue(casestudy.CatArea, "Aorphan"); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoveringVerdictFollowsReregistration swaps the catalog entry for an
// MO whose covering differs, and back: the planner's verdict must flip
// each time, matching the algebra — the covering memo dies with the
// engine of the replaced MO.
func TestCoveringVerdictFollowsReregistration(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	covering := casestudy.MustGenerate(cfg)
	cat := query.Catalog{"gen": covering}
	engines := NewCatalogEngines(cat, testRef)
	src := `SELECT SETCOUNT(*) FROM gen GROUP BY Residence.County`
	reason := fmt.Sprintf("hierarchy %s: category %s does not fully roll up into %s",
		casestudy.DimResidence, casestudy.CatArea, casestudy.CatCounty)
	verdict := func() bool {
		t.Helper()
		diffOne(t, context.Background(), src, cat, engines)
		res, err := ExecContext(context.Background(), src, cat, testRef, engines)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Reasons {
			if r == reason {
				return false
			}
		}
		return true
	}
	if !verdict() {
		t.Fatal("generated Residence reported not covering")
	}
	cat["gen"] = orphanArea(t, covering)
	if verdict() {
		t.Fatal("re-registered dimension with an orphan area still reported covering")
	}
	cat["gen"] = covering
	if !verdict() {
		t.Fatal("restoring the covering MO kept the orphan verdict")
	}
}

// TestTimesliceNeverSeesCurrentVerdict memoizes a current-time covering
// verdict on the engine, then asks the same grouping as of a valid
// instant where an edge has lapsed: the ASOF query must answer like the
// algebra, not with the memoized verdict.
func TestTimesliceNeverSeesCurrentVerdict(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	cfg.Churn = false
	m := casestudy.MustGenerate(cfg)
	res := m.Dimension(casestudy.DimResidence)
	if err := res.AddValue(casestudy.CatArea, "Alapsed"); err != nil {
		t.Fatal(err)
	}
	during := temporal.NewElement(temporal.MustNewInterval(temporal.MustDate("01/01/1990"), temporal.MustDate("31/12/1990")))
	if err := res.AddEdgeAnnot("Alapsed", "C0", dimension.ValidDuring(during)); err != nil {
		t.Fatal(err)
	}
	cat := query.Catalog{"gen": m}
	engines := NewCatalogEngines(cat, testRef)
	current := `SELECT SETCOUNT(*) FROM gen GROUP BY Residence.County`
	if ex := diffOne(t, context.Background(), current, cat, engines); ex.Mode != ModePlanned {
		t.Fatalf("current query not planned: %+v", ex)
	}
	for _, when := range []string{"01/06/1990", "01/06/1995"} {
		src := current + ` ASOF VALID '` + when + `'`
		diffOne(t, context.Background(), src, cat, engines)
		r, err := ExecContext(context.Background(), src, cat, testRef, engines)
		if err != nil {
			t.Fatal(err)
		}
		lapsed := strings.Contains(strings.Join(r.Reasons, "\n"), "does not fully roll up")
		if lapsed != (when == "01/06/1995") {
			t.Fatalf("ASOF VALID %s: reasons %v", when, r.Reasons)
		}
	}
}

// TestUpgradePatchesCachedRows drives the row-patching upgrade: several
// goroutines continue the same cached version at once (none may disturb
// the cached rows or groups, and all must agree with a recompute), a
// HAVING/ORDER/LIMIT query keeps patching the full pre-HAVING row set,
// and a grouped query whose first answer was empty rebuilds its rows.
func TestUpgradePatchesCachedRows(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 40)
	lows := cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	for _, src := range []string{
		`SELECT AVG(Age) AS A FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`,
		`SELECT SETCOUNT(*) AS N FROM gen GROUP BY Diagnosis."Diagnosis Family" HAVING >= 2 ORDER BY N DESC LIMIT 3`,
		`SELECT MAX(Age) FROM gen WHERE Age >= 200 GROUP BY Diagnosis."Diagnosis Group"`,
	} {
		_, parts := capturePartials(t, src, cat, engines)
		before := fmt.Sprint(parts.rows, len(parts.Groups))
		for round := 0; round < 3; round++ {
			epoch := eng.Epoch()
			appendFact(30+round*90, lows[(round*7)%len(lows)], lows[(round*11+3)%len(lows)])
			appendFact(-1, lows[round%len(lows)])
			var wg sync.WaitGroup
			results := make([]*query.Result, 4)
			nexts := make([]*Partials, 4)
			lo, hi, _, ok := eng.DeltaRange(epoch)
			if !ok {
				t.Fatal("delta range not resolvable")
			}
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res, next, err := UpgradeResult(context.Background(), eng, parts, lo, hi, testRef)
					if err != nil {
						t.Error(err)
						return
					}
					results[g], nexts[g] = res, next
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if got := fmt.Sprint(parts.rows, len(parts.Groups)); got != before {
				t.Fatalf("%s round %d: upgrade disturbed the cached version", src, round)
			}
			for g := range results {
				requireMatchesAlgebra(t, src, cat, results[g])
			}
			parts = nexts[0]
			before = fmt.Sprint(parts.rows, len(parts.Groups))
		}
	}
}
