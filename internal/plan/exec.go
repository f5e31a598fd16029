package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mddm/internal/agg"
	"mddm/internal/core"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// execFacts answers SELECT FACTS from the engine's fact dictionary: the
// selected dense indices map straight to fact identities, sorted to match
// the algebra's sorted fact-set iteration. One Facts(1) charge per
// emitted row, like the row loop on the algebra path.
func execFacts(guard *qos.Guard, eng *storage.Engine, m *core.MO, sel *storage.Bitmap, ex *Explain) (*query.Result, error) {
	if ex != nil {
		ex.Shape = ShapeFacts
	}
	ids := eng.SelectedFactIDs(sel)
	sort.Strings(ids)
	res := &query.Result{Columns: []string{m.Schema().FactType()}, Summarizable: true}
	for _, f := range ids {
		if err := guard.Facts(1); err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		res.Rows = append(res.Rows, []string{f})
	}
	if ex != nil {
		ex.Groups = len(res.Rows)
	}
	return res, nil
}

// execGlobal evaluates an aggregate with every dimension grouped at ⊤:
// one group holding every selected fact. No facts, no group, no row —
// the algebra forms no group from an empty fact set.
func execGlobal(guard *qos.Guard, eng *storage.Engine, fn *agg.Func, argDim string, sel *storage.Bitmap, parts *Partials) ([][]string, error) {
	count := eng.NumFacts()
	if sel != nil {
		count = sel.Count()
	}
	if err := guard.Check(); err != nil {
		return nil, err
	}
	if count == 0 {
		parts.captureGlobal(0, nil)
		return nil, nil
	}
	if err := guard.Facts(int64(count)); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	var argvals []float64
	if argDim != "" {
		av := eng.ArgValues(argDim)
		for i := 0; i < av.Len(); i++ {
			if sel == nil || sel.Has(i) {
				argvals = append(argvals, av.Of(i)...)
			}
		}
	}
	parts.captureGlobal(count, argvals)
	v, ok := fn.Apply(count, argvals)
	if !ok {
		return nil, nil
	}
	return [][]string{{agg.FormatResult(v)}}, nil
}

// execOneDim evaluates an aggregate grouped on a single dimension. The
// unselected count/sum cases dispatch to the existing kernels
// (CountByColumn/SumByColumn with bitmap fallback) — the exact paths the
// per-kernel differential tests pin; everything else finishes the grouped
// per-value counts and argument Folds from AggregateBy.
func execOneDim(cctx context.Context, eng *storage.Engine, fn *agg.Func, gd groupDim, argDim string, sel *storage.Bitmap, ex *Explain, parts *Partials) ([][]string, error) {
	if ex != nil {
		if eng.HasColumn(gd.dim, gd.cat) {
			ex.Kernel = "column"
		} else {
			ex.Kernel = "bitmap"
		}
	}
	if sel == nil && !fn.NeedsArg {
		if ex != nil {
			ex.Shape = ShapeKernelCount
		}
		parts.setShape(ShapeKernelCount)
		counts, err := eng.CountDistinctByContext(cctx, gd.dim, gd.cat)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		parts.captureCounts(counts)
		rows := make([][]string, 0, len(counts))
		for v, c := range counts {
			rows = append(rows, []string{v, agg.FormatResult(float64(c))})
		}
		return rows, nil
	}
	if sel == nil && fn.Name == "SUM" {
		if ex != nil {
			ex.Shape = ShapeKernelSum
		}
		parts.setShape(ShapeKernelSum)
		sums, err := eng.SumByContext(cctx, gd.dim, gd.cat, argDim)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		parts.captureSums(sums)
		rows := make([][]string, 0, len(sums))
		for v, s := range sums {
			rows = append(rows, []string{v, agg.FormatResult(s)})
		}
		return rows, nil
	}
	if ex != nil {
		ex.Shape = ShapeGroupFold
	}
	parts.setShape(ShapeGroupFold)
	values, counts, folds, err := eng.AggregateBy(cctx, gd.dim, gd.cat, argDim, sel)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return foldRows(fn, values, counts, folds, parts), nil
}

// foldRows finishes a group-fold result, solo (execOneDim) and batched
// (FinishShared) alike. An argument-taking function's group result is
// fn.FromFold(fold).Finalize(); any other function applies to the
// group's member count. Under capture the seeded states are stored as
// the groups' partials, so a delta continuation Adds onto exactly the
// state a sequential fold would have reached.
func foldRows(fn *agg.Func, values []string, counts []int, folds []agg.Fold, parts *Partials) [][]string {
	rows := make([][]string, 0, len(values))
	for j, val := range values {
		var st agg.State
		var v float64
		var ok bool
		if fn.NeedsArg {
			st = fn.FromFold(folds[j])
			v, ok = st.Finalize()
		} else {
			v, ok = fn.Apply(counts[j], nil)
		}
		if parts != nil {
			parts.Groups[val] = &GroupState{Count: counts[j], State: st}
		}
		if ok {
			rows = append(rows, []string{val, agg.FormatResult(v)})
		}
	}
	return rows
}

// execCross evaluates an aggregate grouped on several dimensions. It
// replicates the algebra's grouping semantics exactly: a fact belongs to
// every combination of its per-dimension ancestor values and is dropped
// entirely when any grouping dimension yields none; combinations with
// identical member sets collapse into one set-valued group whose
// per-dimension values accumulate (fact.NewGroup identity), and the
// flattened rows are the cross product of each group's per-dimension
// value sets — including the cross-product rows that merging introduces.
func execCross(cctx context.Context, guard *qos.Guard, eng *storage.Engine, fn *agg.Func, grouped []groupDim, argDim string, sel *storage.Bitmap) ([][]string, error) {
	k := len(grouped)
	lists := make([][][]string, k)
	n := -1
	for i, gd := range grouped {
		l, err := eng.ValueLists(cctx, gd.dim, gd.cat, sel)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		lists[i] = l
		if n < 0 || len(l) < n {
			n = len(l)
		}
	}
	var av storage.Measure
	if argDim != "" {
		av = eng.ArgValues(argDim)
	}

	// Group facts by combination key (phase A of aggregate formation).
	type comboGroup struct {
		vals    []string
		members []int
	}
	combos := map[string]*comboGroup{}
	perFact := make([][]string, k)
	for i := 0; i < n; i++ {
		if sel != nil && !sel.Has(i) {
			continue
		}
		eligible := true
		for d := 0; d < k; d++ {
			if len(lists[d][i]) == 0 {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		if err := guard.Check(); err != nil {
			return nil, err
		}
		for d := 0; d < k; d++ {
			perFact[d] = lists[d][i]
		}
		i := i
		forEachCombo(perFact, func(combo []string) {
			key := strings.Join(combo, "\x00")
			cg := combos[key]
			if cg == nil {
				cg = &comboGroup{vals: append([]string(nil), combo...)}
				combos[key] = cg
			}
			cg.members = append(cg.members, i)
		})
	}

	// Merge combinations sharing a member set (fact.NewGroup identity) and
	// accumulate each merged group's per-dimension value sets.
	type mergedGroup struct {
		members []int
		perDim  []map[string]bool
	}
	byMembers := map[string]*mergedGroup{}
	for _, cg := range combos {
		mk := memberKey(cg.members)
		mg := byMembers[mk]
		if mg == nil {
			mg = &mergedGroup{members: cg.members, perDim: make([]map[string]bool, k)}
			for d := range mg.perDim {
				mg.perDim[d] = map[string]bool{}
			}
			byMembers[mk] = mg
		}
		for d := 0; d < k; d++ {
			mg.perDim[d][cg.vals[d]] = true
		}
	}

	// Evaluate each merged group once and emit its cross-product rows.
	var rows [][]string
	for _, mg := range byMembers {
		if err := guard.Check(); err != nil {
			return nil, err
		}
		count := len(mg.members)
		if err := guard.Facts(int64(count)); err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		var argvals []float64
		if argDim != "" {
			for _, i := range mg.members {
				if i < av.Len() {
					argvals = append(argvals, av.Of(i)...)
				}
			}
		}
		v, ok := fn.Apply(count, argvals)
		if !ok {
			continue
		}
		rv := agg.FormatResult(v)
		perDim := make([][]string, k)
		for d := 0; d < k; d++ {
			perDim[d] = sortedKeys(mg.perDim[d])
		}
		forEachCombo(perDim, func(combo []string) {
			row := make([]string, 0, k+1)
			row = append(row, combo...)
			row = append(row, rv)
			rows = append(rows, row)
		})
	}
	return rows, nil
}

// forEachCombo calls fn for every element of the cross product of the
// per-dimension value lists; the combo slice is reused across calls.
func forEachCombo(perDim [][]string, fn func(combo []string)) {
	vals := make([]string, len(perDim))
	var rec func(d int)
	rec = func(d int) {
		if d == len(perDim) {
			fn(vals)
			return
		}
		for _, v := range perDim[d] {
			vals[d] = v
			rec(d + 1)
		}
	}
	rec(0)
}

// memberKey canonicalizes a member-index set (already in ascending dense
// order) into a map key.
func memberKey(members []int) string {
	var b strings.Builder
	for _, i := range members {
		fmt.Fprintf(&b, "%d,", i)
	}
	return b.String()
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
