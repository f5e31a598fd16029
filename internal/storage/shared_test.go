package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
)

// compactShared reduces one member's full-width shared-scan outputs to
// the solo AggregateBy view: zero-count values dropped, survivors in
// dictionary order.
func compactShared(values []string, counts []int64, folds []agg.Fold) (vs []string, cs []int, fs []agg.Fold) {
	for j, v := range values {
		if counts[j] == 0 {
			continue
		}
		vs = append(vs, v)
		cs = append(cs, int(counts[j]))
		if folds != nil {
			fs = append(fs, folds[j])
		}
	}
	return vs, cs, fs
}

// foldOf replays agg.Fold.Add over an argument list — the reference for
// what a member's fold must equal, bit for bit.
func foldOf(list []float64) agg.Fold {
	var a agg.Fold
	for _, x := range list {
		a.Add(x)
	}
	return a
}

// foldEqual compares Folds bitwise: Sum must be the exact float the
// ascending left fold produces, not merely approximately equal.
func foldEqual(a, b agg.Fold) bool {
	return a.N == b.N &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// sharedMembers is the mixed member corpus: {no selection, every second
// fact, every third fact} × {no argument, argument}, so one fused pass
// exercises count-only and argument folds under several selections.
func sharedMembers(e *Engine) []SharedScanMember {
	sel2 := NewBitmap(e.NumFacts())
	sel3 := NewBitmap(e.NumFacts())
	for i := 0; i < e.NumFacts(); i++ {
		if i%2 == 0 {
			sel2.Set(i)
		}
		if i%3 == 0 {
			sel3.Set(i)
		}
	}
	return []SharedScanMember{
		{},
		{ArgDim: casestudy.DimAge},
		{Sel: sel2},
		{Sel: sel2, ArgDim: casestudy.DimAge},
		{Sel: sel3},
		{Sel: sel3, ArgDim: casestudy.DimAge},
	}
}

// checkSharedMember asserts one member's fused outputs against its own
// solo AggregateBy — counts always, Folds bitwise for argument members —
// and the Folds against a replay over the argument lists
// AggregateByRange extracts for the whole fact range.
func checkSharedMember(t *testing.T, tag string, e *Engine, dim, cat string, m SharedScanMember,
	values []string, counts []int64, folds []agg.Fold) {
	t.Helper()
	if (folds != nil) != (m.ArgDim != "") {
		t.Fatalf("%s: folds non-nil=%v for ArgDim=%q", tag, folds != nil, m.ArgDim)
	}
	gotV, gotC, gotF := compactShared(values, counts, folds)
	wantV, wantC, wantF, err := e.AggregateBy(context.Background(), dim, cat, m.ArgDim, m.Sel)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotV) != fmt.Sprint(wantV) || fmt.Sprint(gotC) != fmt.Sprint(wantC) {
		t.Fatalf("%s: shared %v %v, solo %v %v", tag, gotV, gotC, wantV, wantC)
	}
	if m.ArgDim == "" {
		return
	}
	for j, v := range values {
		if counts[j] == 0 && folds[j] != (agg.Fold{}) {
			t.Fatalf("%s: value %s has zero count but non-zero fold %+v", tag, v, folds[j])
		}
	}
	_, _, lists, err := e.AggregateByRange(context.Background(), dim, cat, m.ArgDim, m.Sel, 0, e.NumFacts())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range gotV {
		if !foldEqual(gotF[k], wantF[k]) {
			t.Fatalf("%s: value %s fold %+v, solo %+v", tag, v, gotF[k], wantF[k])
		}
		if want := foldOf(lists[k]); !foldEqual(gotF[k], want) {
			t.Fatalf("%s: value %s fold %+v, list replay %+v", tag, v, gotF[k], want)
		}
	}
}

// TestSharedScanDifferential asserts that every member of a fused shared
// scan gets bit-identical outputs to its own solo AggregateBy — for every
// corpus engine, corpus (dim, cat), and parallelism degree. Argument
// members' Folds are compared bitwise against the solo Folds and against
// a replay over the ascending dense-index argument lists.
func TestSharedScanDifferential(t *testing.T) {
	for name, e := range genVariants(t) {
		members := sharedMembers(e)
		for _, dc := range columnDims {
			dim, cat := dc[0], dc[1]
			for _, deg := range allDegrees {
				values, counts, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, deg)
				if err != nil {
					t.Fatalf("%s %s/%s deg=%d: %v", name, dim, cat, deg, err)
				}
				for mi, m := range members {
					tag := fmt.Sprintf("%s %s/%s deg=%d member=%d", name, dim, cat, deg, mi)
					checkSharedMember(t, tag, e, dim, cat, m, values, counts[mi], folds[mi])
				}
			}
		}
	}
}

// TestSharedScanFullWidth pins the full-width contract the batch budget
// replay depends on: per member one count per dictionary value — zeros
// included — and Fold slots only for argument members.
func TestSharedScanFullWidth(t *testing.T) {
	e, _ := growEngine(t, 30)
	members := sharedMembers(e)
	dim, cat := casestudy.DimDiagnosis, casestudy.CatLowLevel
	values, counts, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(e.mo.Dimension(dim).CategoryAt(cat, e.ctx))
	if len(values) != want {
		t.Fatalf("dictionary width %d, category has %d values", len(values), want)
	}
	for mi, m := range members {
		if len(counts[mi]) != want {
			t.Fatalf("member %d: %d counts, want %d", mi, len(counts[mi]), want)
		}
		if wantFolds := m.ArgDim != ""; (folds[mi] != nil) != wantFolds {
			t.Fatalf("member %d: folds non-nil=%v, want %v (ArgDim=%q)",
				mi, folds[mi] != nil, wantFolds, m.ArgDim)
		}
		if folds[mi] != nil && len(folds[mi]) != want {
			t.Fatalf("member %d: %d folds, want %d", mi, len(folds[mi]), want)
		}
	}
}

// TestSharedScanStaleDictionary asserts the freshness refusal: growing a
// category after the column build makes the fused kernel step aside with
// ErrSharedScanUnavailable (the solo kernels read the live dictionary;
// the stale column would silently under-code the newer facts).
func TestSharedScanStaleDictionary(t *testing.T) {
	e, grow := growEngine(t, 30)
	dim, cat := casestudy.DimAge, casestudy.CatTenYear
	if _, _, _, err := e.SharedAggregateBy(context.Background(), dim, cat, []SharedScanMember{{}}, 1); err != nil {
		t.Fatalf("fresh column: %v", err)
	}
	// grow appends facts with ages in [20, 80); age 200 adds a ten-year
	// group the built column has never seen.
	if _, err := casestudy.AddAge(e.mo.Dimension(casestudy.DimAge), 200); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := e.SharedAggregateBy(context.Background(), dim, cat, []SharedScanMember{{}}, 1)
	if !errors.Is(err, ErrSharedScanUnavailable) {
		t.Fatalf("stale dictionary: got %v, want ErrSharedScanUnavailable", err)
	}
	grow(1) // facts keep appending; the refusal persists until a rebuild
	_, _, _, err = e.SharedAggregateBy(context.Background(), dim, cat, []SharedScanMember{{}}, 1)
	if !errors.Is(err, ErrSharedScanUnavailable) {
		t.Fatalf("stale dictionary after append: got %v, want ErrSharedScanUnavailable", err)
	}
}

// TestSharedScanUnknownDim asserts the kernel refuses (rather than
// panics) for a dimension the schema does not have.
func TestSharedScanUnknownDim(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 10
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	_, _, _, err := e.SharedAggregateBy(context.Background(), "NoSuchDim", "NoSuchCat", []SharedScanMember{{}}, 1)
	if err == nil {
		t.Fatal("unknown dimension: expected an error")
	}
}

// TestSharedScanGrownFacts asserts the fused kernel stays differential
// with solo after appends that do NOT grow the dictionary — the codes
// array and argument columns extend and both paths see the same facts.
func TestSharedScanGrownFacts(t *testing.T) {
	e, grow := growEngine(t, 30)
	dim, cat := casestudy.DimDiagnosis, casestudy.CatLowLevel
	if _, _, _, err := e.SharedAggregateBy(context.Background(), dim, cat, []SharedScanMember{{}}, 1); err != nil {
		t.Fatal(err)
	}
	grow(7)
	members := sharedMembers(e)
	values, counts, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, 2)
	if errors.Is(err, ErrSharedScanUnavailable) {
		t.Skip("append grew the dictionary; covered by TestSharedScanStaleDictionary")
	}
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range members {
		tag := fmt.Sprintf("member %d after append", mi)
		checkSharedMember(t, tag, e, dim, cat, m, values, counts[mi], folds[mi])
	}
}
