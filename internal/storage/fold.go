package storage

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"mddm/internal/agg"
	"mddm/internal/exec"
	"mddm/internal/qos"
)

// This file holds the late-materialization read primitives the columnar
// query planner (internal/plan) folds over. They follow the same locking
// discipline as the aggregation kernels: materialize missing closures and
// argument columns first (write lock on the cold path only), then read
// under the read lock, so one call observes one consistent snapshot of
// the index even while AppendFact runs concurrently.

// ArgValues returns a snapshot of the memoized measure column of the
// argument dimension: dense fact index → the fact's admitted numeric
// values, in the sorted value order the algebra's argument extraction
// uses. Facts appended after the call are beyond the snapshot's Len.
func (e *Engine) ArgValues(argDim string) Measure {
	e.ensureArgValues(argDim)
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.argCols[argDim]
}

// SelectedFactIDs returns the fact identities marked in sel in ascending
// dense-index order, or every fact when sel is nil. One read-lock
// acquisition for the whole extraction.
func (e *Engine) SelectedFactIDs(sel *Bitmap) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if sel == nil {
		return append([]string(nil), e.facts...)
	}
	out := make([]string, 0, sel.Count())
	sel.Iterate(func(i int) bool {
		if i < len(e.facts) {
			out = append(out, e.facts[i])
		}
		return true
	})
	return out
}

// MultiValued reports whether any selected fact (every fact when sel is
// nil) is characterized by two or more distinct values of the category —
// the selection-masked strict-path probe of the summarizability check.
// Like the algebra's StrictPath it charges no fact budget: it is a
// metadata probe, not an aggregation scan.
func (e *Engine) MultiValued(dim, cat string, sel *Bitmap) bool {
	return e.MultiValuedRange(dim, cat, sel, 0, math.MaxInt)
}

// AggregateBy is the planner's grouped fold: for every value of the
// category (in CategoryAt order) it returns the value, the number of
// selected facts it characterizes, and — when argDim is non-empty — the
// facts' argument values folded into a constant-size agg.Fold in
// ascending dense-index order (the algebra's extraction order, so
// Func.FromFold finalizes bit-identically to Eval over the value list).
// Values characterizing no selected fact are omitted. The fact budget is
// charged exactly like countDistinctBy: one Check plus Facts(count) per
// category value, selection itself costing nothing. A context-carried
// parallelism degree above 1 evaluates value partitions in parallel with
// in-order compaction, so results and budget totals are identical at any
// degree.
func (e *Engine) AggregateBy(ctx context.Context, dim, cat, argDim string, sel *Bitmap) (values []string, counts []int, folds []agg.Fold, err error) {
	g := qos.NewGuard(ctx)
	d := e.mo.Dimension(dim)
	vals := d.CategoryAt(cat, e.ctx)
	if err := e.ensureClosures(g, dim, vals); err != nil {
		return nil, nil, nil, err
	}
	e.ensureArgValues(argDim)
	e.mu.RLock()
	defer e.mu.RUnlock()
	di := e.dims[dim]
	av := e.argCols[argDim]
	n := len(e.facts)
	kcounts := make([]int, len(vals))
	kfolds := make([]agg.Fold, len(vals))
	evalOne := func(g *qos.Guard, j int, scratch *Bitmap) error {
		if err := g.Check(); err != nil {
			return err
		}
		var members *Bitmap
		if di != nil {
			if bm := di.closure[vals[j]]; bm != nil {
				members = bm
				if sel != nil {
					members = scratch.AndInto(bm, sel)
				}
			}
		}
		c := 0
		if members != nil {
			c = members.Count()
		}
		if err := g.Facts(int64(c)); err != nil {
			return fmt.Errorf("storage: aggregate %s/%s: %w", dim, cat, err)
		}
		kcounts[j] = c
		if c > 0 && argDim != "" {
			foldArgs(&kfolds[j], members, av, n)
		}
		return nil
	}
	deg := exec.DegreeFrom(ctx)
	parts := exec.Partitions(len(vals), deg)
	if deg > 1 && len(parts) > 1 {
		err = exec.Run(ctx, nil, deg, len(parts), func(p int) error {
			wg := qos.NewGuard(ctx)
			scratch := NewBitmap(n)
			for j := parts[p].Lo; j < parts[p].Hi && j < len(vals); j++ {
				if err := evalOne(wg, j, scratch); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		scratch := NewBitmap(n)
		for j := range vals {
			if err = evalOne(g, j, scratch); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	for j, v := range vals {
		if kcounts[j] == 0 {
			continue
		}
		values = append(values, v)
		counts = append(counts, kcounts[j])
		folds = append(folds, kfolds[j])
	}
	mBitmapScans.Add(int64(len(values)))
	return values, counts, folds, nil
}

// foldArgs folds the argument values of the facts marked in members
// below n into acc, fact by fact in ascending dense-index order and each
// fact's values in argument-column order — the order the algebra extracts
// argument lists in, so the fold replays Eval's arithmetic exactly.
func foldArgs(acc *agg.Fold, members *Bitmap, av Measure, n int) {
	n = min(n, av.Len())
	f := *acc
	off, x := av.off, av.x
	for wi, w := range members.words[:min(len(members.words), (n+63)>>6)] {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			if i >= n {
				break
			}
			if off == nil {
				f.Add(x[i])
				continue
			}
			for _, v := range x[off[i]:off[i+1]] {
				f.Add(v)
			}
		}
	}
	*acc = f
}

// ValueLists returns, per dense fact index, the category values that
// characterize the fact (facts outside sel get nil when sel is non-nil).
// Values appear in CategoryAt order, which is sorted — the same order the
// algebra's per-fact ancestor lists use, so combo expansion over these
// lists reproduces the algebra's group keys. Budget: one Check per
// category value; the per-fact appends are materialization the caller
// charges when it folds the groups.
func (e *Engine) ValueLists(ctx context.Context, dim, cat string, sel *Bitmap) ([][]string, error) {
	g := qos.NewGuard(ctx)
	d := e.mo.Dimension(dim)
	vals := d.CategoryAt(cat, e.ctx)
	if err := e.ensureClosures(g, dim, vals); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	di := e.dims[dim]
	out := make([][]string, len(e.facts))
	if di == nil {
		return out, nil
	}
	scanned := int64(0)
	for _, v := range vals {
		if err := g.Check(); err != nil {
			return nil, fmt.Errorf("storage: value-lists %s/%s: %w", dim, cat, err)
		}
		bm := di.closure[v]
		if bm == nil {
			continue
		}
		scanned++
		v := v
		bm.Iterate(func(i int) bool {
			if sel == nil || sel.Has(i) {
				out[i] = append(out[i], v)
			}
			return true
		})
	}
	mBitmapScans.Add(scanned)
	return out, nil
}
