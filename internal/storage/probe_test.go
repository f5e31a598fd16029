package storage

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// probeContexts are the evaluation contexts the probe differentials run
// under: current, valid-instant, transaction-instant and MinProb.
func probeContexts() map[string]dimension.Context {
	cur := dimension.CurrentContext(ref)
	return map[string]dimension.Context{
		"current":    cur,
		"valid 1990": cur.AtValid(temporal.MustDate("01/06/1990")),
		"trans 1990": cur.AtTrans(temporal.MustDate("01/06/1990")),
		"minprob .9": cur.WithMinProb(0.9),
	}
}

// multiValuedByClosures is MultiValued's definition: some selected fact
// in [lo, hi) lies in the closure bitmaps of two distinct values of the
// category.
func multiValuedByClosures(e *Engine, dim, cat string, sel *Bitmap, lo, hi int) bool {
	seen := map[int]bool{}
	for _, v := range e.mo.Dimension(dim).CategoryAt(cat, e.ctx) {
		found := false
		e.Characterizing(dim, v).Iterate(func(i int) bool {
			if i < lo || i >= hi || (sel != nil && !sel.Has(i)) {
				return true
			}
			if seen[i] {
				found = true
				return false
			}
			seen[i] = true
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// TestMultiValuedMatchesClosures checks the column-backed strictness
// probe against the closure definition on the churn + non-strict +
// mixed-granularity generator, for every category, with and without a
// selection, over whole and split ranges, and again after appends that
// make facts multi-valued.
func TestMultiValuedMatchesClosures(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 120
	cfg.DiagnosesPerPatient = 2
	m := casestudy.MustGenerate(cfg)
	r := rand.New(rand.NewSource(5))
	for name, ectx := range probeContexts() {
		e := NewEngine(m, ectx)
		check := func(stage string) {
			t.Helper()
			n := e.NumFacts()
			sels := []*Bitmap{nil, NewBitmap(n), randomBitmap(r, n, 0.1), randomBitmap(r, n, 0.5)}
			for _, dim := range []string{casestudy.DimDiagnosis, casestudy.DimResidence} {
				for _, cat := range m.Dimension(dim).Type().CategoryTypes() {
					for si, sel := range sels {
						if got, want := e.MultiValued(dim, cat, sel), multiValuedByClosures(e, dim, cat, sel, 0, n); got != want {
							t.Fatalf("%s %s: MultiValued(%s/%s, sel %d) = %v, closure definition %v", name, stage, dim, cat, si, got, want)
						}
						for _, lo := range []int{0, n / 3, n - 1} {
							hi := lo + 1 + r.Intn(n-lo)
							if got, want := e.MultiValuedRange(dim, cat, sel, lo, hi), multiValuedByClosures(e, dim, cat, sel, lo, hi); got != want {
								t.Fatalf("%s %s: MultiValuedRange(%s/%s, sel %d, %d, %d) = %v, closure definition %v",
									name, stage, dim, cat, si, lo, hi, got, want)
							}
						}
					}
				}
			}
		}
		check("built")
		lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("%s-append%d", name, i)
			// Two low-level diagnoses, usually in different families.
			for k := 0; k < 2; k++ {
				if err := m.Relate(casestudy.DimDiagnosis, id, lows[r.Intn(len(lows))]); err != nil {
					t.Fatal(err)
				}
			}
			for _, dim := range []string{casestudy.DimResidence, casestudy.DimAge} {
				if err := m.Relate(dim, id, dimension.TopValue); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.AppendFact(id); err != nil {
				t.Fatal(err)
			}
		}
		check("after appends")
	}
}

// TestMultiValuedStaleDictionary checks that a column whose category
// gained a value after the build does not answer the probe: facts that
// carry the new value are still seen.
func TestMultiValuedStaleDictionary(t *testing.T) {
	e, grow := growEngine(t, 30)
	dim, cat := casestudy.DimAge, casestudy.CatTenYear
	if e.MultiValued(dim, cat, nil) {
		t.Fatal("generator ages are single-valued")
	}
	// A fact aged 25 and 205: two ten-year groups, one of them new.
	age := e.mo.Dimension(dim)
	young, err := casestudy.AddAge(age, 25)
	if err != nil {
		t.Fatal(err)
	}
	old, err := casestudy.AddAge(age, 205)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{young, old} {
		if err := e.mo.Relate(dim, "twice", v); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []string{casestudy.DimDiagnosis, casestudy.DimResidence} {
		if err := e.mo.Relate(d, "twice", dimension.TopValue); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AppendFact("twice"); err != nil {
		t.Fatal(err)
	}
	n := e.NumFacts()
	if !e.MultiValued(dim, cat, nil) || !e.MultiValuedRange(dim, cat, nil, n-1, n) {
		t.Fatal("stale column answered: the fact in two ten-year groups was missed")
	}
	if want := multiValuedByClosures(e, dim, cat, nil, 0, n); !want {
		t.Fatal("closure definition disagrees with the fixture")
	}
	grow(1)
	if !e.MultiValuedRange(dim, cat, nil, 0, e.NumFacts()) {
		t.Fatal("verdict lost after a further append")
	}
}

// coverDim returns a two-level dimension whose covering verdict differs
// with every field of the context: edge x → h is valid only during 1990
// and has probability 0.8, and edge y → h is current only during 1990.
func coverDim(t *testing.T) (*core.MO, string) {
	t.Helper()
	dt := dimension.NewDimensionType("Place")
	for _, c := range []string{"Low", "High"} {
		if err := dt.AddCategoryType(c, dimension.Constant, dimension.KindString); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.AddOrder("Low", "High"); err != nil {
		t.Fatal(err)
	}
	if err := dt.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := core.NewMO(core.MustSchema("Thing", dt))
	d := m.Dimension("Place")
	during := temporal.NewElement(temporal.MustNewInterval(temporal.MustDate("01/01/1990"), temporal.MustDate("31/12/1990")))
	valid := dimension.ValidDuring(during).WithProb(0.8)
	current := dimension.Always()
	current.Time = temporal.TransOnly(during)
	for _, step := range []error{
		d.AddValue("High", "h"), d.AddValue("Low", "x"), d.AddValue("Low", "y"),
		d.AddEdgeAnnot("x", "h", valid), d.AddEdgeAnnot("y", "h", current),
		m.Relate("Place", "t1", "x"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return m, "Place"
}

// TestCoveringMemoKeyedOnContext checks that the engine's covering memo
// keys on the whole evaluation context: a valid-time context never sees
// the verdict memoized under current time, in either order, and the
// transaction instant and the probability threshold separate entries
// too.
func TestCoveringMemoKeyedOnContext(t *testing.T) {
	m, dim := coverDim(t)
	cur := dimension.CurrentContext(ref)
	in1990 := temporal.MustDate("01/06/1990")
	in1995 := temporal.MustDate("01/06/1995")
	ctxs := []dimension.Context{cur, cur.AtValid(in1995), cur.AtValid(in1990), cur.AtTrans(in1995),
		cur.AtTrans(in1990), cur.WithMinProb(0.9), cur.WithMinProb(0.5), dimension.CurrentContext(ref + 1)}
	d := m.Dimension(dim)
	verdicts := map[bool]int{}
	for _, c := range ctxs {
		verdicts[d.Covering("Low", "High", c)]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 || d.Covering("Low", "High", ctxs[1]) || !d.Covering("Low", "High", cur) {
		t.Fatal("fixture: want covering under current time and not at valid 1995")
	}
	forward := []int{0, 1, 2, 3, 4, 5, 6, 7}
	backward := []int{7, 6, 5, 4, 3, 2, 1, 0}
	for _, order := range [][]int{forward, backward, {0, 1, 0, 1}, {1, 0, 1, 0}} {
		e := NewEngine(m, cur)
		for _, k := range order {
			for rep := 0; rep < 2; rep++ {
				if got, want := e.Covering(dim, "Low", "High", ctxs[k]), d.Covering("Low", "High", ctxs[k]); got != want {
					t.Fatalf("order %v, context %d (call %d): memo %v, dimension %v", order, k, rep, got, want)
				}
			}
		}
	}
}

// oldFirstUnknownFact is the pre-change BuildEngine check: the first pair,
// in (fact, value) order, whose fact is not in the MO.
func oldFirstUnknownFact(m *core.MO) *UnknownFactError {
	known := map[string]bool{}
	for _, f := range m.Facts().IDs() {
		known[f] = true
	}
	for _, name := range m.Schema().DimensionNames() {
		for _, p := range m.Relation(name).Pairs() {
			if !known[p.FactID] {
				return &UnknownFactError{Dim: name, FactID: p.FactID, ValueID: p.ValueID}
			}
		}
	}
	return nil
}

// TestBuildEngineFirstUnknownFact injects pairs of unknown facts into
// several dimensions and checks BuildEngine reports the same pair a
// sorted scan meets first.
func TestBuildEngineFirstUnknownFact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		cfg := casestudy.DefaultGen()
		cfg.Patients = 30
		cfg.Seed = int64(trial)
		m := casestudy.MustGenerate(cfg)
		dims := m.Schema().DimensionNames()
		for k := 0; k < 1+r.Intn(4); k++ {
			dim := dims[r.Intn(len(dims))]
			vals := m.Dimension(dim).Values()
			m.Relation(dim).Add(fmt.Sprintf("ghost%d", r.Intn(5)), vals[r.Intn(len(vals))])
		}
		if r.Intn(3) == 0 {
			// A real fact removed from F leaves its pairs dangling.
			m.Facts().Remove(fmt.Sprintf("p%d", r.Intn(cfg.Patients)))
		}
		want := oldFirstUnknownFact(m)
		_, err := BuildEngine(context.Background(), m, dimension.CurrentContext(ref))
		if want == nil {
			t.Fatalf("trial %d: fixture injected nothing", trial)
		}
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("trial %d: BuildEngine error %v, sorted scan reports %v", trial, err, want)
		}
	}
}

// TestSelectNumericUnionsValueBitmaps checks SelectNumeric against a
// per-fact scan of the measure column for thresholds on both sides of
// every generated age.
func TestSelectNumericUnionsValueBitmaps(t *testing.T) {
	e, grow := growEngine(t, 80)
	for _, stage := range []string{"built", "after appends"} {
		av := e.ArgValues(casestudy.DimAge)
		for k := -1.0; k <= 101; k += 7.5 {
			got := e.SelectNumeric(casestudy.DimAge, func(x float64) bool { return x >= k })
			var want []int
			for i := 0; i < av.Len(); i++ {
				for _, x := range av.Of(i) {
					if x >= k {
						want = append(want, i)
						break
					}
				}
			}
			if idx := got.Indices(); !sort.IntsAreSorted(idx) || fmt.Sprint(idx) != fmt.Sprint(want) || got.Len() != e.NumFacts() {
				t.Fatalf("%s: Age >= %v selects %v (universe %d), scan %v", stage, k, idx, got.Len(), want)
			}
		}
		grow(9)
	}
}

// TestProbesRaceWithAppends runs the measure-column readers, the numeric
// selection, the strictness probe and the covering memo from several
// goroutines while another appends facts with ages; run with -race. The
// MO is prepared before the goroutines start, so the engine is the only
// shared mutable state.
func TestProbesRaceWithAppends(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 80
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	ids := make([]string, 40)
	for i := range ids {
		ids[i] = fmt.Sprintf("pnew%d", i)
		ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), 20+i)
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]string{{casestudy.DimDiagnosis, lows[i%len(lows)]}, {casestudy.DimDiagnosis, lows[(i*7)%len(lows)]},
			{casestudy.DimResidence, "A0"}, {casestudy.DimAge, ageID}}
		if i == 20 {
			// A second age switches the measure column to offsets mid-run.
			pairs = append(pairs, [2]string{casestudy.DimAge, "7"})
		}
		for _, p := range pairs {
			if err := m.Relate(p[0], ids[i], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			if err := e.AppendFact(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				sel := e.SelectNumeric(casestudy.DimAge, func(x float64) bool { return x >= 40 })
				_ = e.MultiValued(casestudy.DimDiagnosis, casestudy.CatFamily, sel)
				_ = e.Covering(casestudy.DimDiagnosis, casestudy.CatLowLevel, casestudy.CatFamily, e.Context())
				if _, _, _, err := e.AggregateBy(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimAge, sel); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.SumByColumn(context.Background(), casestudy.DimResidence, casestudy.CatArea, casestudy.DimAge); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := e.ArgValues(casestudy.DimAge).Len(), e.NumFacts(); got != want {
		t.Fatalf("measure column covers %d facts, engine has %d", got, want)
	}
}

// measureByRelation is the measure column's definition: fact i's
// admitted numeric values in the dimension, in sorted value order.
func measureByRelation(e *Engine, dim string) [][]float64 {
	d, r := e.mo.Dimension(dim), e.mo.Relation(dim)
	out := make([][]float64, e.NumFacts())
	for i := range out {
		f := e.FactID(i)
		for _, v := range r.ValuesOf(f) {
			a, _ := r.Annot(f, v)
			if x, ok := d.Numeric(v, e.ctx); ok && e.ctx.Admits(a) {
				out[i] = append(out[i], x)
			}
		}
	}
	return out
}

// TestMeasureColumnLayouts checks the measure column against its
// definition while it is in the one-value layout, after appends switch it
// to offsets (a fact with two ages, then one with none), and that a
// snapshot taken before the switch still reads its own facts unchanged.
// Folds over the column must equal folds over the definition.
func TestMeasureColumnLayouts(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 50
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	check := func(stage string, av Measure) {
		t.Helper()
		want := measureByRelation(e, casestudy.DimAge)[:av.Len()]
		for i := range want {
			if fmt.Sprint(av.Of(i)) != fmt.Sprint(want[i]) && !(len(want[i]) == 0 && len(av.Of(i)) == 0) {
				t.Fatalf("%s: fact %d has %v, definition %v", stage, i, av.Of(i), want[i])
			}
		}
		all := NewBitmap(av.Len()).Fill()
		var got, ref agg.Fold
		foldArgs(&got, all, av, av.Len())
		for _, xs := range want {
			for _, x := range xs {
				ref.Add(x)
			}
		}
		if got != ref {
			t.Fatalf("%s: fold %+v, definition %+v", stage, got, ref)
		}
	}
	dense := e.ArgValues(casestudy.DimAge)
	if dense.off != nil {
		t.Fatal("one age per generated fact: want the one-value layout")
	}
	check("one-value", dense)
	add := func(id string, ages ...int) {
		for _, a := range ages {
			ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), a)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Relate(casestudy.DimAge, id, ageID); err != nil {
				t.Fatal(err)
			}
		}
		for _, dim := range []string{casestudy.DimDiagnosis, casestudy.DimResidence} {
			if err := m.Relate(dim, id, dimension.TopValue); err != nil {
				t.Fatal(err)
			}
		}
		if len(ages) == 0 {
			if err := m.Relate(casestudy.DimAge, id, dimension.TopValue); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AppendFact(id); err != nil {
			t.Fatal(err)
		}
	}
	add("single", 33)
	if e.ArgValues(casestudy.DimAge).off != nil {
		t.Fatal("a one-age append left the one-value layout")
	}
	add("twice", 41, 7)
	add("ageless")
	add("again", 12)
	after := e.ArgValues(casestudy.DimAge)
	if after.off == nil || after.Len() != e.NumFacts() {
		t.Fatalf("after mixed appends: off nil %v, %d facts of %d", after.off == nil, after.Len(), e.NumFacts())
	}
	check("offsets", after)
	check("old snapshot", dense)
	fresh := NewEngine(m, dimension.CurrentContext(ref))
	rebuilt := fresh.ArgValues(casestudy.DimAge)
	for i := 0; i < fresh.NumFacts(); i++ {
		j := e.idx[fresh.FactID(i)]
		if fmt.Sprint(rebuilt.Of(i)) != fmt.Sprint(after.Of(j)) {
			t.Fatalf("fact %s: fresh build %v, maintained %v", fresh.FactID(i), rebuilt.Of(i), after.Of(j))
		}
	}
}
