package plan

import (
	"context"
	"fmt"
	"time"

	"mddm/internal/agg"
	"mddm/internal/obs"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// This file is the planner's half of shared-scan batching (internal/batch):
// PrepareContext stops a query at the brink of shape execution so the
// scheduler can group it with concurrent queries over the same
// (engine, dimension, category) leg, and FinishShared consumes the fused
// scan's full-width outputs while replaying — value by value, in
// dictionary order — the exact qos budget sequence the solo kernels
// charge. Batched results are bit-identical to solo execution: same rows,
// same error texts, same budget spend, same captured delta partials.

// Batch bypass reasons — the closed set of "why this query cannot join a
// fused scan" labels (internal/batch registers a counter per reason).
const (
	// BypassFallback: the query routes to the algebra path (probabilistic,
	// holistic, timeslice, …) — there is no kernel leg to share.
	BypassFallback = "fallback"
	// BypassFacts: SELECT FACTS enumerates identities, not group folds.
	BypassFacts = "facts"
	// BypassGlobal: the single ⊤ group needs no per-value scan.
	BypassGlobal = "global"
	// BypassCross: multi-leg grouping has combo/merge semantics a fused
	// single-leg scan cannot reproduce.
	BypassCross = "cross"
	// BypassError: planning failed; Execute surfaces the validation error.
	BypassError = "error"
	// BypassScanUnavailable: the fused kernel refused (stale column
	// dictionary); members ran solo instead.
	BypassScanUnavailable = "scan-unavailable"
)

// PrepareContext parses and plans a query, stopping short of shape
// execution. The caller then either Executes it solo or — when Batchable —
// routes it through a fused shared scan and FinishShared. Spans and
// planner latency metrics cover prepare through finish, mirroring
// ExecContext.
func PrepareContext(cctx context.Context, src string, cat query.Catalog, ref temporal.Chronon, engines Engines) (*Prepared, error) {
	start := time.Now()
	sp := obs.StartSpan(cctx, "plan.query")
	q, err := query.Parse(src)
	if err != nil {
		mPlanSeconds.Observe(time.Since(start))
		sp.End()
		return nil, err
	}
	p, err := prepare(cctx, q, cat, ref)
	if err != nil {
		mPlanSeconds.Observe(time.Since(start))
		sp.End()
		return nil, err
	}
	p.plan(engines)
	p.sp, p.start = sp, start
	return p, nil
}

// Abort releases the Prepared's span and latency observation without
// executing — the batch glue's path for a member whose context died
// while waiting on its batch.
func (p *Prepared) Abort() { p.finishSpan() }

// Batchable reports whether the prepared query can join a fused shared
// scan — a planned single-leg aggregate — and the bypass reason when it
// cannot (one of the Bypass* constants).
func (p *Prepared) Batchable() (bool, string) {
	switch {
	case p.fallbackReason != "":
		return false, BypassFallback
	case p.planErr != nil:
		return false, BypassError
	case p.factsOnly:
		return false, BypassFacts
	case len(p.grouped) == 0:
		return false, BypassGlobal
	case len(p.grouped) > 1:
		return false, BypassCross
	}
	return true, ""
}

// Engine returns the resolved engine snapshot (nil unless Batchable).
func (p *Prepared) Engine() *storage.Engine { return p.eng }

// GroupLeg returns the single grouping leg a batchable query folds over.
func (p *Prepared) GroupLeg() (dim, cat string) {
	if len(p.grouped) != 1 {
		return "", ""
	}
	return p.grouped[0].dim, p.grouped[0].cat
}

// ArgDim returns the argument dimension ("" when the function takes none).
func (p *Prepared) ArgDim() string { return p.argDim }

// Selection returns the compiled WHERE bitmap (nil admits every fact).
func (p *Prepared) Selection() *storage.Bitmap { return p.sel }

// FinishShared completes a batchable query from a fused shared scan's
// full-width outputs: values is the column dictionary in CategoryAt order,
// counts this member's per-value fact counts (zero-count values included)
// and folds, for an argument-carrying member, the scan's per-value
// agg.Folds. It replays the solo kernels' budget sequence — per
// dictionary value, Check then Facts(count), with the solo paths' exact
// error wrapping — against a fresh guard on the member's own context,
// then runs the shared result tail (sort, HAVING/ORDER/LIMIT, partials
// capture). The output is bit-identical to Execute at degree 1; see
// docs/TRAFFIC.md for the float-order argument.
func (p *Prepared) FinishShared(values []string, counts []int64, folds []agg.Fold) (*query.Result, error) {
	defer p.finishSpan()
	if ok, reason := p.Batchable(); !ok {
		return nil, fmt.Errorf("plan: FinishShared on a non-batchable query (%s)", reason)
	}
	if len(counts) != len(values) || (p.argDim != "" && len(folds) != len(values)) {
		return nil, fmt.Errorf("plan: FinishShared with %d counts and %d folds for %d values", len(counts), len(folds), len(values))
	}
	gd := p.grouped[0]
	cp := captureFrom(p.cctx)
	var parts *Partials
	if cp != nil {
		parts = newPartials(p.q, p.fn, p.grouped, p.argDim, p.m.Schema().FactType(), p.report)
	}
	g := qos.NewGuard(p.cctx)
	var rows [][]string
	switch {
	case p.sel == nil && !p.fn.NeedsArg:
		if p.ex != nil {
			p.ex.Shape = ShapeKernelCount
			p.ex.Kernel = KernelShared
		}
		parts.setShape(ShapeKernelCount)
		out := make(map[string]int, len(values))
		for j, v := range values {
			if err := g.Check(); err != nil {
				return nil, fmt.Errorf("query: %w", err)
			}
			if err := g.Facts(counts[j]); err != nil {
				return nil, fmt.Errorf("query: %w",
					fmt.Errorf("storage: count-distinct %s/%s: %w", gd.dim, gd.cat, err))
			}
			if counts[j] > 0 {
				out[v] = int(counts[j])
			}
		}
		parts.captureCounts(out)
		rows = make([][]string, 0, len(out))
		for v, c := range out {
			rows = append(rows, []string{v, agg.FormatResult(float64(c))})
		}
	case p.sel == nil && p.fn.Name == "SUM":
		if p.ex != nil {
			p.ex.Shape = ShapeKernelSum
			p.ex.Kernel = KernelShared
		}
		parts.setShape(ShapeKernelSum)
		sums := make(map[string]float64, len(values))
		for j, v := range values {
			if err := g.Check(); err != nil {
				return nil, fmt.Errorf("query: %w", err)
			}
			if err := g.Facts(counts[j]); err != nil {
				return nil, fmt.Errorf("query: %w",
					fmt.Errorf("storage: sum %s/%s: %w", gd.dim, gd.cat, err))
			}
			if folds[j].N > 0 {
				// The Fold's Sum is the left fold in ascending dense-index
				// order — the exact addition order of the solo kernels.
				sums[v] = folds[j].Sum
			}
		}
		parts.captureSums(sums)
		rows = make([][]string, 0, len(sums))
		for v, s := range sums {
			rows = append(rows, []string{v, agg.FormatResult(s)})
		}
	default:
		if p.ex != nil {
			p.ex.Shape = ShapeGroupFold
			p.ex.Kernel = KernelShared
		}
		parts.setShape(ShapeGroupFold)
		var kvals []string
		var kcounts []int
		var kfolds []agg.Fold
		for j, v := range values {
			if err := g.Check(); err != nil {
				return nil, fmt.Errorf("query: %w", err)
			}
			if err := g.Facts(counts[j]); err != nil {
				return nil, fmt.Errorf("query: %w",
					fmt.Errorf("storage: aggregate %s/%s: %w", gd.dim, gd.cat, err))
			}
			if counts[j] == 0 {
				continue
			}
			kvals = append(kvals, v)
			kcounts = append(kcounts, int(counts[j]))
			if folds != nil {
				kfolds = append(kfolds, folds[j])
			}
		}
		rows = foldRows(p.fn, kvals, kcounts, kfolds, parts)
	}
	return p.finish(rows, parts, cp)
}
