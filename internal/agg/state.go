package agg

import (
	"sort"

	"mddm/internal/dimension"
)

// This file implements mergeable partial-aggregate states — the combine
// semantics the partition-parallel execution engine (internal/exec) needs:
// each partition folds its slice of the input into a State, partial states
// merge pairwise, and Finalize yields the aggregate. The guard mirrors the
// paper's summarizability conditions at the physical level: distributive
// functions (and AVG, algebraic as sum+count) merge in constant space,
// while holistic functions such as MEDIAN cannot be computed from
// constant-size partials — their fallback State collects the raw values
// and recomputes at Finalize, exactly as the summarizability rule forces a
// non-summarizable aggregation back to base data.
//
// Merge order contract: callers merge partial states in ascending
// partition order, and partitions are contiguous index ranges, so a
// collection-based State sees values in the same order as a sequential
// fold. Constant-size merging of float sums re-associates the additions;
// that is exact for integer-valued measures (and any values whose sums
// need no rounding) and differs by at most rounding otherwise — callers
// that require bit-identical float results for arbitrary inputs fold each
// group sequentially and use states only across disjoint partitions.

// State is one partial aggregate: Add folds one input (an argument value,
// a membership probability, or a group-member marker — the same stream
// the sequential fold consumes), Merge folds another partial of the same
// function in, and Finalize yields the result (ok false when the input
// was empty and the function is undefined on empty input).
type State interface {
	Add(v float64)
	Merge(o State)
	Finalize() (res float64, ok bool)
	// Clone returns an independent copy of the partial: mutating the copy
	// (Add, Merge) never changes the original. Delta maintenance relies on
	// this to continue a cached fold without destroying the cached partial
	// — the clone absorbs the appended facts, the original stays valid for
	// the entry's own version.
	Clone() State
}

// Mergeable reports whether the function's partials merge in constant
// space. False means holistic: State falls back to collecting values and
// recomputing — the distributive/holistic split of the summarizability
// guard, applied to physical execution.
func (g *Func) Mergeable() bool { return g.NewState != nil }

// State returns a fresh partial-aggregate state for the function:
// the registered constant-size state when the function is mergeable, the
// collect-and-recompute fallback otherwise.
func (g *Func) State() State {
	if g.NewState != nil {
		return g.NewState()
	}
	return &collectState{g: g}
}

// Fold is the constant-size argument fold a grouped scan keeps per group
// in place of the group's argument value list. Add replays, in one pass,
// the arithmetic each builtin's Eval performs over that list in the same
// order: Sum is the left fold from 0, Min and Max follow Eval's ladder
// (the first value seeds, later values replace on a strict < or >, so
// NaN semantics carry over), and N is the list length. Func.FromFold
// turns a Fold into the matching State.
type Fold struct {
	// N counts the values folded.
	N int64
	// Sum is the running sum in fold order.
	Sum float64
	// Min and Max are the running extrema; zero while N is 0.
	Min, Max float64
}

// Add folds one argument value.
func (f *Fold) Add(x float64) {
	f.Sum += x
	if f.N == 0 {
		f.Min, f.Max = x, x
	} else {
		if x < f.Min {
			f.Min = x
		}
		if x > f.Max {
			f.Max = x
		}
	}
	f.N++
}

func less(a, b float64) bool    { return a < b }
func greater(a, b float64) bool { return a > b }

// sumState merges by adding partial sums; okEmpty distinguishes SUM
// (undefined on empty input) from EXPECTED (empty sum is 0).
type sumState struct {
	sum     float64
	n       int64
	okEmpty bool
}

func (s *sumState) Add(v float64) {
	s.sum += v
	s.n++
}

func (s *sumState) Merge(o State) {
	x := o.(*sumState)
	s.sum += x.sum
	s.n += x.n
}

func (s *sumState) Finalize() (float64, bool) {
	return s.sum, s.okEmpty || s.n > 0
}

func (s *sumState) Clone() State { cp := *s; return &cp }

// countState counts inputs admitted by pred (nil admits all); COUNT,
// SETCOUNT, MINCOUNT and MAXCOUNT are all counts under different
// predicates, and counts merge by integer addition — always exactly.
type countState struct {
	n    int64
	pred func(v float64) bool
}

func (s *countState) Add(v float64) {
	if s.pred == nil || s.pred(v) {
		s.n++
	}
}

func (s *countState) Merge(o State) { s.n += o.(*countState).n }

func (s *countState) Finalize() (float64, bool) { return float64(s.n), true }

func (s *countState) Clone() State { cp := *s; return &cp }

// extremeState merges MIN/MAX partials via the function itself — the
// textbook distributive case.
type extremeState struct {
	m    float64
	n    int64
	less func(a, b float64) bool // keep a when less(a, b)
}

func (s *extremeState) Add(v float64) {
	if s.n == 0 || s.less(v, s.m) {
		s.m = v
	}
	s.n++
}

func (s *extremeState) Merge(o State) {
	x := o.(*extremeState)
	if x.n == 0 {
		return
	}
	if s.n == 0 || s.less(x.m, s.m) {
		s.m = x.m
	}
	s.n += x.n
}

func (s *extremeState) Finalize() (float64, bool) { return s.m, s.n > 0 }

func (s *extremeState) Clone() State { cp := *s; return &cp }

// avgState is AVG reformulated as the pair (sum, count) — not
// distributive as a single value, but algebraic: the pair merges
// component-wise and finalizes to sum/count.
type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Add(v float64) {
	s.sum += v
	s.n++
}

func (s *avgState) Merge(o State) {
	x := o.(*avgState)
	s.sum += x.sum
	s.n += x.n
}

func (s *avgState) Finalize() (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.sum / float64(s.n), true
}

func (s *avgState) Clone() State { cp := *s; return &cp }

// collectState is the holistic fallback: it keeps every value (in Add
// order; merges concatenate in merge order, so ascending-partition merges
// reproduce the sequential order) and recomputes with the function's own
// fold at Finalize.
type collectState struct {
	g    *Func
	vals []float64
}

func (s *collectState) Add(v float64) { s.vals = append(s.vals, v) }

func (s *collectState) Merge(o State) {
	s.vals = append(s.vals, o.(*collectState).vals...)
}

func (s *collectState) Finalize() (float64, bool) {
	switch {
	case s.g.NeedsProb:
		return s.g.ProbEval(s.vals)
	case s.g.NeedsArg:
		return s.g.Eval(s.vals)
	default:
		return float64(len(s.vals)), true
	}
}

func (s *collectState) Clone() State {
	return &collectState{g: s.g, vals: append([]float64(nil), s.vals...)}
}

// MEDIAN is the registry's holistic exemplar: order-statistic aggregates
// have no constant-size mergeable partial (NewState stays nil), so
// partition-parallel execution collects values and recomputes — and,
// being non-distributive, MEDIAN also fails the summarizability check, so
// its results get aggregation type c.
func init() {
	Register(&Func{
		Name: "MEDIAN", Distributive: false,
		MinClass: dimension.Average, ResultClass: dimension.Average, NeedsArg: true,
		Eval: func(vals []float64) (float64, bool) {
			if len(vals) == 0 {
				return 0, false
			}
			s := append([]float64(nil), vals...)
			sort.Float64s(s)
			mid := len(s) / 2
			if len(s)%2 == 1 {
				return s[mid], true
			}
			return (s[mid-1] + s[mid]) / 2, true
		},
	})
}
