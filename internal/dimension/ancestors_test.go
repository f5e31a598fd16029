package dimension_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// ancestorsByLessEq is AncestorsIn's definition: every value a of the
// category with LessEq(id, a) under the context, sorted.
func ancestorsByLessEq(d *dimension.Dimension, cat, id string, ctx dimension.Context) []string {
	var out []string
	for _, cand := range d.Category(cat) {
		if ok, _ := d.LessEq(id, cand, ctx); ok {
			out = append(out, cand)
		}
	}
	sort.Strings(out)
	return out
}

// annotatedDims returns the generator's Diagnosis (churn, uncertain,
// non-strict) and Residence dimensions, with extra edges and values whose
// annotations the generator leaves at Always: second parents valid or
// current only over an interval, edges of probability below 1 (so
// MinProb cuts paths), and values whose membership is time-limited.
func annotatedDims(t *testing.T) map[string]*dimension.Dimension {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	m := casestudy.MustGenerate(cfg)
	r := rand.New(rand.NewSource(11))
	epoch := temporal.MustDate("01/01/1980")
	span := func() temporal.Element {
		start := epoch + temporal.Chronon(r.Intn(7000))
		return temporal.NewElement(temporal.MustNewInterval(start, start+temporal.Chronon(30+r.Intn(3000))))
	}
	annot := func() dimension.Annot {
		a := dimension.Always()
		switch r.Intn(4) {
		case 0:
			a.Time = temporal.ValidOnly(span())
		case 1:
			a.Time = temporal.TransOnly(span())
		}
		return a.WithProb([]float64{1, 0.95, 0.9, 0.6}[r.Intn(4)])
	}
	out := map[string]*dimension.Dimension{}
	for _, name := range []string{casestudy.DimDiagnosis, casestudy.DimResidence} {
		d := m.Dimension(name).Clone()
		cats := d.Type().CategoryTypes()
		for i := 0; i < 60; i++ {
			lo, hi := cats[r.Intn(len(cats))], cats[r.Intn(len(cats))]
			los, his := d.Category(lo), d.Category(hi)
			if lo == hi || len(los) == 0 || len(his) == 0 || !d.Type().LessEq(lo, hi) {
				continue
			}
			_ = d.AddEdgeAnnot(los[r.Intn(len(los))], his[r.Intn(len(his))], annot())
		}
		for i := 0; i < 10; i++ {
			cat := cats[r.Intn(len(cats))]
			if cat == dimension.TopName {
				continue
			}
			id := fmt.Sprintf("x%d", i)
			if err := d.AddValueAnnot(cat, id, annot()); err != nil {
				t.Fatal(err)
			}
			for _, other := range cats {
				if vals := d.Category(other); other != cat && len(vals) > 0 && d.Type().LessEq(cat, other) {
					_ = d.AddEdgeAnnot(id, vals[r.Intn(len(vals))], annot())
				}
			}
		}
		out[name] = d
	}
	return out
}

// TestAncestorsInMatchesLessEq checks AncestorsIn against its per-candidate
// LessEq definition for every value (and one unknown id) and every
// category, under current, valid-instant, transaction-instant and
// probability-threshold contexts.
func TestAncestorsInMatchesLessEq(t *testing.T) {
	ref := temporal.MustDate("01/01/1999")
	cur := dimension.CurrentContext(ref)
	ctxs := map[string]dimension.Context{
		"current":     cur,
		"valid 1985":  cur.AtValid(temporal.MustDate("01/06/1985")),
		"valid 1996":  cur.AtValid(temporal.MustDate("15/03/1996")),
		"trans 1988":  cur.AtTrans(temporal.MustDate("01/01/1988")),
		"minprob .9":  cur.WithMinProb(0.9),
		"minprob .95": cur.WithMinProb(0.95),
		"valid+prob":  cur.AtValid(temporal.MustDate("01/06/1990")).WithMinProb(0.9),
	}
	for name, d := range annotatedDims(t) {
		ids := append(d.Values(), "no-such-value")
		for cname, ctx := range ctxs {
			for _, cat := range d.Type().CategoryTypes() {
				for _, id := range ids {
					got := d.AncestorsIn(cat, id, ctx)
					want := ancestorsByLessEq(d, cat, id, ctx)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: AncestorsIn(%s, %s) = %v, LessEq definition %v", name, cname, cat, id, got, want)
					}
				}
			}
		}
	}
}
