package storage

import (
	"context"
	"fmt"

	"mddm/internal/qos"
)

// This file holds the delta-fold read primitives of incremental
// maintenance: the same closure-bitmap walks the aggregation kernels
// run, restricted to the appended fact range [lo, hi) an epoch-window
// lookup resolved (see epoch.go). Because AppendFact only ever adds
// facts at new dense indices — it never rewrites an existing fact's
// characterizations — the facts in [lo, hi) are exactly the difference
// between the engine at the old epoch and now, and folding just that
// range continues a cached fold where it stopped.
//
// Delta folds charge no fact budget: they are maintenance work bounded
// by the append volume, priced like a cache hit rather than a query
// (the computation they extend already paid once). Cancellation is
// still honored per category value.

// AggregateByRange is AggregateBy restricted to the dense fact range
// [lo, hi): for every category value (in CategoryAt order) it returns
// the value, the number of selected in-range facts it characterizes,
// and — when argDim is non-empty — those facts' argument values
// concatenated in ascending dense-index order. Values with no in-range
// selected facts are omitted. Appending the returned argument lists to
// the list over [0, lo) reproduces, element for element, the list whose
// fold AggregateBy returns over [0, hi).
func (e *Engine) AggregateByRange(ctx context.Context, dim, cat, argDim string, sel *Bitmap, lo, hi int) (values []string, counts []int, args [][]float64, err error) {
	g := qos.NewGuard(ctx)
	d := e.mo.Dimension(dim)
	if d == nil {
		return nil, nil, nil, nil
	}
	vals := d.CategoryAt(cat, e.ctx)
	if err := e.ensureClosures(g, dim, vals); err != nil {
		return nil, nil, nil, err
	}
	e.ensureArgValues(argDim)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if hi > len(e.facts) {
		hi = len(e.facts)
	}
	di := e.dims[dim]
	if di == nil || lo >= hi {
		return nil, nil, nil, nil
	}
	av := e.argCols[argDim]
	scanned := int64(0)
	for _, v := range vals {
		// CheckNow, not the sampled Check: a delta fold visits few values,
		// so sampling could skip the poll entirely and outlive its caller.
		if err := g.CheckNow(); err != nil {
			return nil, nil, nil, fmt.Errorf("storage: delta aggregate %s/%s: %w", dim, cat, err)
		}
		bm := di.closure[v]
		if bm == nil {
			continue
		}
		scanned++
		c := 0
		var list []float64
		bm.IterateRange(lo, hi, func(i int) bool {
			if sel != nil && !sel.Has(i) {
				return true
			}
			c++
			if i < av.Len() {
				list = append(list, av.Of(i)...)
			}
			return true
		})
		if c == 0 {
			continue
		}
		values = append(values, v)
		counts = append(counts, c)
		args = append(args, list)
	}
	mBitmapScans.Add(scanned)
	return values, counts, args, nil
}

// GlobalRange is the ungrouped delta fold: the number of selected facts
// in [lo, hi) and — when argDim is non-empty — their argument values
// concatenated in ascending dense-index order, matching the extraction
// order of the planner's global shape.
func (e *Engine) GlobalRange(ctx context.Context, argDim string, sel *Bitmap, lo, hi int) (int, []float64, error) {
	g := qos.NewGuard(ctx)
	if err := g.CheckNow(); err != nil {
		return 0, nil, fmt.Errorf("storage: delta global fold: %w", err)
	}
	e.ensureArgValues(argDim)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if hi > len(e.facts) {
		hi = len(e.facts)
	}
	if lo < 0 {
		lo = 0
	}
	av := e.argCols[argDim]
	count := 0
	var list []float64
	for i := lo; i < hi; i++ {
		if sel != nil && !sel.Has(i) {
			continue
		}
		count++
		if i < av.Len() {
			list = append(list, av.Of(i)...)
		}
	}
	return count, list, nil
}

// MultiValuedRange is MultiValued restricted to the dense fact range
// [lo, hi): it reports whether any selected fact in the range is
// characterized by two or more distinct values of the category. Old
// facts' characterizations are append-invariant, so
//
//	MultiValued(all) == MultiValued(old) || MultiValuedRange(delta)
//
// — which is how a cached strictness verdict is upgraded without
// rescanning history. Like MultiValued it is a metadata probe and
// charges no fact budget.
// It reads the characterization column (built on first use): a fact is
// multi-valued iff it has entries in the overflow table, which is sorted
// by fact, so the probe is a binary-search window.
func (e *Engine) MultiValuedRange(dim, cat string, sel *Bitmap, lo, hi int) bool {
	d := e.mo.Dimension(dim)
	if d == nil {
		return false
	}
	vals := d.CategoryAt(cat, e.ctx)
	_ = e.ensureClosures(nil, dim, vals)              // nil guard: cannot fail
	_ = e.BuildColumn(context.Background(), dim, cat) // uncancellable; a >uint32 dictionary cannot fit in memory
	e.mu.RLock()
	defer e.mu.RUnlock()
	col := e.cols[colKey(dim, cat)]
	if col == nil {
		return false
	}
	if len(col.vals) != len(vals) {
		// Stale dictionary: answer from a transient column over the live
		// one; the installed column stays as SharedAggregateBy refuses it.
		col, _ = e.newColumn(nil, dim, cat, vals) // nil guard: cannot fail
	}
	over := col.over
	for k, ke := overStart(over, lo), overStart(over, hi); k < ke; k++ {
		if sel == nil || sel.Has(over[k].fact) {
			return true
		}
	}
	return false
}
