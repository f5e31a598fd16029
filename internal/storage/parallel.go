package storage

import (
	"context"
	"fmt"

	"mddm/internal/agg"
	"mddm/internal/exec"
	"mddm/internal/qos"
)

// This file holds the partition-parallel evaluation paths of the engine.
// The shape is always the same: freeze a view of the closure bitmaps (one
// lock acquisition, defensive clones — so a concurrent AppendFact cannot
// race with partition workers), split the dense fact universe with
// exec.Partitions, evaluate each partition lock-free on the shared worker
// pool, and merge the partials in ascending partition order. Counts merge
// by integer addition (always exact); sums merge through the mergeable
// partial-aggregate states of internal/agg, which is exact for
// integer-valued measures and differs by at most float re-association
// otherwise. Budget accounting (qos.Guard.Facts) charges the same totals
// as the sequential paths, so a query costs the same no matter its degree.

// frozenValueBitmaps resolves and clones the closure bitmap of every value
// of (dim, cat) — the frozen view partition workers evaluate without
// further locking (so a concurrent AppendFact cannot race with them). It
// returns the values, their bitmaps, and the universe size at freeze time.
func (e *Engine) frozenValueBitmaps(g *qos.Guard, dim, cat string) (vals []string, bms []*Bitmap, n int, err error) {
	d := e.mo.Dimension(dim)
	catVals := d.CategoryAt(cat, e.ctx)
	if err := e.ensureClosures(g, dim, catVals); err != nil {
		return nil, nil, 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	di := e.dims[dim]
	n = len(e.facts)
	for _, v := range catVals {
		if err := g.Check(); err != nil {
			return nil, nil, 0, err
		}
		bm := NewBitmap(n)
		if di != nil {
			if c := di.closure[v]; c != nil {
				bm = c.Clone()
			}
		}
		vals = append(vals, v)
		bms = append(bms, bm)
	}
	return vals, bms, n, nil
}

// countDistinctByParallel is the partition-parallel CountDistinctBy: each
// partition popcounts its index range of every value bitmap, and the
// per-partition counts merge by integer addition — the degenerate (always
// exact) merge, so the result is identical to the sequential fold.
func (e *Engine) countDistinctByParallel(ctx context.Context, dim, cat string, degree int) (map[string]int, error) {
	g := qos.NewGuard(ctx)
	vals, bms, n, err := e.frozenValueBitmaps(g, dim, cat)
	if err != nil {
		return nil, err
	}
	mBitmapScans.Add(int64(len(bms)))
	parts := exec.Partitions(n, degree)
	partial := make([][]int, len(parts))
	if err := exec.Run(ctx, nil, degree, len(parts), func(p int) error {
		counts := make([]int, len(bms))
		r := parts[p]
		for j, bm := range bms {
			counts[j] = bm.CountRange(r.Lo, r.Hi)
		}
		partial[p] = counts
		return nil
	}); err != nil {
		return nil, err
	}
	out := map[string]int{}
	for j, v := range vals {
		c := 0
		for p := range parts {
			c += partial[p][j]
		}
		if err := g.Facts(int64(c)); err != nil {
			return nil, fmt.Errorf("storage: count-distinct %s/%s: %w", dim, cat, err)
		}
		if c > 0 {
			out[v] = c
		}
	}
	return out, nil
}

// sumByParallel is the partition-parallel SumBy: over the frozen view
// and a measure-column snapshot, each partition folds
// its range into a mergeable SUM state, and partials merge in ascending
// partition order.
func (e *Engine) sumByParallel(ctx context.Context, dim, cat, argDim string, degree int) (map[string]float64, error) {
	g := qos.NewGuard(ctx)
	vals, bms, n, err := e.frozenValueBitmaps(g, dim, cat)
	if err != nil {
		return nil, err
	}
	// Snapshotted after the bitmaps, so it covers every fact they mark.
	av := e.ArgValues(argDim)

	mBitmapScans.Add(int64(len(bms)))
	sum := agg.MustLookup("SUM")
	parts := exec.Partitions(n, degree)
	partial := make([][]agg.State, len(parts))
	if err := exec.Run(ctx, nil, degree, len(parts), func(p int) error {
		row := make([]agg.State, len(bms))
		r := parts[p]
		for j, bm := range bms {
			s := sum.State()
			bm.IterateRange(r.Lo, r.Hi, func(i int) bool {
				for _, x := range av.Of(i) {
					s.Add(x)
				}
				return true
			})
			row[j] = s
		}
		partial[p] = row
		return nil
	}); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for j, v := range vals {
		if err := g.Facts(int64(bms[j].Count())); err != nil {
			return nil, fmt.Errorf("storage: sum %s/%s: %w", dim, cat, err)
		}
		acc := sum.State()
		for p := range parts {
			acc.Merge(partial[p][j])
		}
		if x, ok := acc.Finalize(); ok {
			out[v] = x
		}
	}
	return out, nil
}
