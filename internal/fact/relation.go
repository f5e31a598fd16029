package fact

import (
	"sort"

	"mddm/internal/dimension"
)

// Pair is one annotated element (f, e) ∈Tv,p R of a fact–dimension
// relation.
type Pair struct {
	FactID  string
	ValueID string
	Annot   dimension.Annot
}

// Relation is a fact–dimension relation R between a fact set and a
// dimension: a set of annotated (fact, value) pairs. A fact may be related
// to any number of values, at any granularity — the relation captures the
// many-to-many relationships and mixed granularities of requirement 6
// and 9. Duplicate (fact, value) pairs coalesce their chronon sets.
type Relation struct {
	pairs  map[string]map[string]dimension.Annot // fact -> value -> annot
	byVal  map[string]map[string]bool            // value -> facts
	nPairs int
	// byValStale defers the value→facts postings after a bulk load:
	// AdoptPairs skips them and the first reader rebuilds the whole index
	// from pairs in one pass. Readers go through materializeByVal.
	byValStale bool
	// fill, when non-nil, holds a deferred bulk load (NewRelationDeferred):
	// the pair maps do not exist yet and the first access of any kind runs
	// fill to build them. Every public method materializes first.
	fill func(*Relation)
}

// NewRelation returns an empty fact–dimension relation.
func NewRelation() *Relation {
	return &Relation{
		pairs: map[string]map[string]dimension.Annot{},
		byVal: map[string]map[string]bool{},
	}
}

// NewRelationDeferred returns a relation whose contents arrive lazily:
// fill runs exactly once, on the relation's first access of any kind,
// and populates it through the normal mutators (typically AdoptPairs).
// nFacts pre-sizes the pair map for the load. A restore can hand back a
// model in O(decode) and let each relation pay its map-building cost
// when — and only when — something actually reads or writes it; an
// engine serving queries from bitmaps and columns may never touch the
// relation at all.
func NewRelationDeferred(nFacts int, fill func(*Relation)) *Relation {
	return &Relation{
		pairs: make(map[string]map[string]dimension.Annot, nFacts),
		byVal: map[string]map[string]bool{},
		fill:  fill,
	}
}

// materialize runs a pending deferred fill. Clearing fill first makes
// the mutators the fill itself calls re-entrant no-ops here.
func (r *Relation) materialize() {
	if r.fill == nil {
		return
	}
	fill := r.fill
	r.fill = nil
	fill(r)
}

// AdoptPairs records every (factID, value) pair of vals at once, taking
// ownership of the map — the caller must not use it afterwards. For a
// fact not yet in the relation this skips both the per-pair coalescing
// walk AddAnnot does and the posting maintenance (deferred to the first
// posting reader); a fact already present falls back to AddAnnot so the
// coalescing semantics hold regardless.
func (r *Relation) AdoptPairs(factID string, vals map[string]dimension.Annot) {
	r.materialize()
	if len(vals) == 0 {
		return
	}
	if _, exists := r.pairs[factID]; exists {
		for v, a := range vals {
			r.AddAnnot(factID, v, a)
		}
		return
	}
	r.pairs[factID] = vals
	r.nPairs += len(vals)
	r.byValStale = true
}

// materializeByVal rebuilds the value→facts postings after AdoptPairs
// deferred them. One pass over all pairs, so a bulk load pays for the
// postings once at first use instead of per adopted fact — and not at
// all if nothing ever reads them.
func (r *Relation) materializeByVal() {
	if !r.byValStale {
		return
	}
	r.byVal = map[string]map[string]bool{}
	for f, vs := range r.pairs {
		for v := range vs {
			fs := r.byVal[v]
			if fs == nil {
				fs = map[string]bool{}
				r.byVal[v] = fs
			}
			fs[f] = true
		}
	}
	r.byValStale = false
}

// ValuesLen returns the number of values directly related to a fact.
func (r *Relation) ValuesLen(factID string) int {
	r.materialize()
	return len(r.pairs[factID])
}

// RangeValues calls fn for every (value, annotation) directly related to
// a fact, in unspecified order, stopping early when fn returns false.
// Unlike ValuesOf it allocates nothing; the relation must not be mutated
// during the walk.
func (r *Relation) RangeValues(factID string, fn func(valueID string, a dimension.Annot) bool) {
	r.materialize()
	for v, a := range r.pairs[factID] {
		if !fn(v, a) {
			return
		}
	}
}

// Range calls fn for every pair of the relation, in unspecified order,
// stopping early when fn returns false. Unlike Pairs it neither sorts nor
// allocates; the relation must not be mutated during the walk.
func (r *Relation) Range(fn func(factID, valueID string, a dimension.Annot) bool) {
	r.materialize()
	for f, vs := range r.pairs {
		for v, a := range vs {
			if !fn(f, v, a) {
				return
			}
		}
	}
}

// NumFacts returns the number of facts related to at least one value.
func (r *Relation) NumFacts() int {
	r.materialize()
	return len(r.pairs)
}

// Add records (f, e) ∈ R with an Always annotation.
func (r *Relation) Add(factID, valueID string) {
	r.AddAnnot(factID, valueID, dimension.Always())
}

// AddAnnot records (f, e) ∈Tv R. A pre-existing pair coalesces: chronon
// sets union per the paper's rule for value-equivalent data, probabilities
// combine by max.
func (r *Relation) AddAnnot(factID, valueID string, a dimension.Annot) {
	r.materialize()
	vs := r.pairs[factID]
	if vs == nil {
		vs = map[string]dimension.Annot{}
		r.pairs[factID] = vs
	}
	if old, ok := vs[valueID]; ok {
		p := old.Prob
		if a.Prob > p {
			p = a.Prob
		}
		vs[valueID] = dimension.Annot{Time: old.Time.Union(a.Time), Prob: p}
	} else {
		vs[valueID] = a
		r.nPairs++
	}
	if r.byValStale {
		// The postings are pending a full rebuild that will cover this
		// pair too; maintaining the partial index would be wasted work.
		return
	}
	if r.byVal[valueID] == nil {
		r.byVal[valueID] = map[string]bool{}
	}
	r.byVal[valueID][factID] = true
}

// Remove deletes the (fact, value) pair.
func (r *Relation) Remove(factID, valueID string) {
	r.materialize()
	r.materializeByVal()
	if vs, ok := r.pairs[factID]; ok {
		if _, had := vs[valueID]; had {
			delete(vs, valueID)
			r.nPairs--
			if len(vs) == 0 {
				delete(r.pairs, factID)
			}
		}
	}
	if fs, ok := r.byVal[valueID]; ok {
		delete(fs, factID)
		if len(fs) == 0 {
			delete(r.byVal, valueID)
		}
	}
}

// Annot returns the annotation of the pair (f, e) and whether it exists.
func (r *Relation) Annot(factID, valueID string) (dimension.Annot, bool) {
	r.materialize()
	a, ok := r.pairs[factID][valueID]
	return a, ok
}

// Has reports whether (f, e) ∈ R for some annotation.
func (r *Relation) Has(factID, valueID string) bool {
	r.materialize()
	_, ok := r.pairs[factID][valueID]
	return ok
}

// ValuesOf returns the sorted dimension values directly related to a fact.
func (r *Relation) ValuesOf(factID string) []string {
	r.materialize()
	out := make([]string, 0, len(r.pairs[factID]))
	for v := range r.pairs[factID] {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FactsOf returns the sorted facts directly related to a value.
func (r *Relation) FactsOf(valueID string) []string {
	r.materialize()
	r.materializeByVal()
	out := make([]string, 0, len(r.byVal[valueID]))
	for f := range r.byVal[valueID] {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Facts returns the sorted fact ids that appear in the relation.
func (r *Relation) Facts() []string {
	r.materialize()
	out := make([]string, 0, len(r.pairs))
	for f := range r.pairs {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of (fact, value) pairs.
func (r *Relation) Len() int {
	r.materialize()
	return r.nPairs
}

// Pairs returns all pairs sorted by fact then value, for deterministic
// iteration and rendering.
func (r *Relation) Pairs() []Pair {
	r.materialize()
	out := make([]Pair, 0, r.nPairs)
	for f, vs := range r.pairs {
		for v, a := range vs {
			out = append(out, Pair{FactID: f, ValueID: v, Annot: a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FactID != out[j].FactID {
			return out[i].FactID < out[j].FactID
		}
		return out[i].ValueID < out[j].ValueID
	})
	return out
}

// Restrict returns a new relation keeping only pairs whose fact is in keep.
func (r *Relation) Restrict(keep func(factID string) bool) *Relation {
	r.materialize()
	n := NewRelation()
	for f, vs := range r.pairs {
		if !keep(f) {
			continue
		}
		for v, a := range vs {
			n.AddAnnot(f, v, a)
		}
	}
	return n
}

// Union returns the union of two relations, coalescing common pairs per the
// paper's temporal union rule: (f,e) ∈T1 R1 ∧ (f,e) ∈T2 R2 ⇒
// (f,e) ∈T1∪T2 R'.
func (r *Relation) Union(o *Relation) *Relation {
	o.materialize()
	n := r.Clone()
	for f, vs := range o.pairs {
		for v, a := range vs {
			n.AddAnnot(f, v, a)
		}
	}
	return n
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	r.materialize()
	n := NewRelation()
	for f, vs := range r.pairs {
		for v, a := range vs {
			n.AddAnnot(f, v, a)
		}
	}
	return n
}

// Equal reports whether two relations hold the same pairs with equal
// annotations.
func (r *Relation) Equal(o *Relation) bool {
	r.materialize()
	o.materialize()
	if r.nPairs != o.nPairs {
		return false
	}
	for f, vs := range r.pairs {
		for v, a := range vs {
			b, ok := o.pairs[f][v]
			if !ok || a.Prob != b.Prob ||
				!a.Time.Valid.Equal(b.Time.Valid) || !a.Time.Trans.Equal(b.Time.Trans) {
				return false
			}
		}
	}
	return true
}
