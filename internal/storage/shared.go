package storage

import (
	"context"
	"errors"

	"mddm/internal/agg"
	"mddm/internal/exec"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// This file implements the fused shared-scan kernel behind the batch
// scheduler (internal/batch): one pass that fills the per-group partials
// of several concurrent queries at once. The pass walks the dictionary
// once; per value it loads the closure bitmap and serves every member
// from it. Members split into two classes with different cost shapes:
//
//   - Count-only members (no argument dimension) are answered with
//     word-parallel population counts of closure ∧ selection — the exact
//     primitive the solo kernels use (AggregateBy counts |closure ∧ sel|
//     per value): popcount over n/64 words per value instead of a branch
//     per fact per member.
//
//   - Argument members fold their argument values into constant-size
//     per-value agg.Folds with the solo kernel's own iteration: closure ∧
//     selection, then an ascending walk of the marked facts (foldArgs).
//     The fold replays the exact float addition sequence Eval would apply
//     to the group's argument list, so every builtin finalizes through
//     Func.FromFold bit-identically to solo execution — without
//     materializing a per-member argument list.
//
// Bit-identity with solo execution follows from the shared order: both
// paths visit each value's facts in ascending dense-index order through
// the same foldArgs, and parallel partitions split the dictionary, never
// a value's fact range, so the degree changes no float association. The
// whole pass runs under one reader lock, so every member of a batch sees
// one consistent fact universe.
//
// The scan itself charges no fact budget: like closure memoization and
// column builds it is infrastructure work. Every member replays the solo
// budget sequence against its own guard afterwards, so a batched query
// spends exactly what its solo execution would have.

// mSharedScans counts fused shared-scan kernel passes (one per batch).
var mSharedScans = obs.NewCounter("mddm_storage_shared_scans_total",
	"Fused shared-scan kernel passes (one per query batch).")

// ErrSharedScanUnavailable reports that the fused kernel cannot answer
// bit-identically right now — the column is missing or its dictionary is
// stale against the dimension (a value was added after the build). The
// caller runs each member solo instead; this is a bypass, not a failure.
var ErrSharedScanUnavailable = errors.New("storage: shared scan unavailable")

// SharedScanMember is one query's slice of a fused scan.
type SharedScanMember struct {
	// ArgDim is the member's argument dimension; "" extracts no arguments.
	ArgDim string
	// Sel is the member's WHERE selection; nil admits every fact.
	Sel *Bitmap
}

// SharedAggregateBy runs one fused pass for every member at once over the
// characterization of (dim, cat). It returns the value dictionary
// (CategoryAt order, shared — treat as read-only) and, per member,
// full-width per-value fact counts plus, for argument members, per-value
// agg.Folds indexed by the dictionary (nil for count-only members). deg
// above 1 splits the dictionary into exec partitions; every value is
// folded whole by one partition, so outputs are deg-independent. The
// column is built on first use for its dictionary; a column whose
// dictionary went stale (the dimension gained values since the build)
// yields ErrSharedScanUnavailable so members fall back to solo kernels,
// which read the live dictionary.
func (e *Engine) SharedAggregateBy(ctx context.Context, dim, cat string, members []SharedScanMember, deg int) (values []string, counts [][]int64, folds [][]agg.Fold, err error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, nil, nil, err
	}
	d := e.mo.Dimension(dim)
	if d == nil {
		return nil, nil, nil, ErrSharedScanUnavailable
	}
	catVals := d.CategoryAt(cat, e.ctx)
	g := qos.NewGuard(ctx)
	if err := e.ensureClosures(g, dim, catVals); err != nil {
		return nil, nil, nil, err
	}
	for _, m := range members {
		e.ensureArgValues(m.ArgDim)
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	col := e.cols[colKey(dim, cat)]
	if col == nil {
		return nil, nil, nil, ErrSharedScanUnavailable
	}
	if len(col.vals) != len(catVals) {
		// appendToColumn only admits dictionary values, so a column whose
		// category grew since the build under-codes the newer facts; the
		// solo kernels would see the live value set.
		return nil, nil, nil, ErrSharedScanUnavailable
	}
	n := len(e.facts)
	nv := len(col.vals)
	di := e.dims[dim]
	argVals := make([]Measure, len(members))
	counts = make([][]int64, len(members))
	folds = make([][]agg.Fold, len(members))
	for mi, m := range members {
		counts[mi] = make([]int64, nv)
		if m.ArgDim != "" {
			argVals[mi] = e.argCols[m.ArgDim]
			folds[mi] = make([]agg.Fold, nv)
		}
	}
	foldValues := func(g *qos.Guard, lo, hi int) error {
		if di == nil {
			return nil
		}
		scratch := NewBitmap(n)
		for j := lo; j < hi; j++ {
			if err := g.Check(); err != nil {
				return err
			}
			bm := di.closure[col.vals[j]]
			if bm == nil {
				continue
			}
			for mi, m := range members {
				if m.ArgDim == "" {
					if m.Sel != nil {
						counts[mi][j] = int64(bm.AndCountRange(m.Sel, 0, n))
					} else {
						counts[mi][j] = int64(bm.CountRange(0, n))
					}
					continue
				}
				mem := bm
				if m.Sel != nil {
					mem = scratch.AndInto(bm, m.Sel)
				}
				if c := mem.CountRange(0, n); c > 0 {
					counts[mi][j] = int64(c)
					foldArgs(&folds[mi][j], mem, argVals[mi], n)
				}
			}
		}
		return nil
	}
	if parts := exec.Partitions(nv, deg); deg > 1 && len(parts) > 1 {
		err = exec.Run(ctx, nil, deg, len(parts), func(p int) error {
			return foldValues(qos.NewGuard(ctx), parts[p].Lo, parts[p].Hi)
		})
	} else {
		err = foldValues(g, 0, nv)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	mSharedScans.Inc()
	return col.vals, counts, folds, nil
}
