// Package fact implements facts and fact–dimension relations of the
// extended multidimensional data model (Pedersen & Jensen, ICDE 1999,
// §3.1–3.3). Facts are objects with separate identity: they can be tested
// for equality but carry no ordering, and the combination of dimension
// values characterizing a fact is not a key. Fact–dimension relations link
// facts to dimension values at any granularity, are many-to-many, and carry
// bitemporal and probability annotations.
package fact

import (
	"fmt"
	"sort"
	"strings"
)

// Fact is a fact with separate identity. Result MOs of the
// aggregate-formation operator have facts of type 2^F — sets of argument
// facts — represented by a non-nil Members list; the algebra stays closed
// because a set-valued fact is an ordinary fact with identity.
type Fact struct {
	ID      string
	Members []string // nil for base facts; sorted member ids for set facts
}

// NewFact returns a base fact with the given identity.
func NewFact(id string) Fact { return Fact{ID: id} }

// NewGroup returns a set-valued fact whose identity is the canonical
// rendering of its member set, e.g. "{1,2}". The member list is sorted and
// de-duplicated.
func NewGroup(members []string) Fact {
	return NewGroupTagged(members, "")
}

// NewGroupTagged returns a set-valued fact whose identity additionally
// carries a tag, e.g. "{1,2}@G12". Aggregate formation with probabilistic
// functions uses the tag to keep groups with equal member sets but
// different grouping combinations apart — their results differ because the
// membership probabilities depend on the combination.
func NewGroupTagged(members []string, tag string) Fact {
	set := map[string]bool{}
	for _, m := range members {
		set[m] = true
	}
	sorted := make([]string, 0, len(set))
	for m := range set {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	id := "{" + strings.Join(sorted, ",") + "}"
	if tag != "" {
		id += "@" + tag
	}
	return Fact{ID: id, Members: sorted}
}

// IsGroup reports whether the fact is set-valued.
func (f Fact) IsGroup() bool { return f.Members != nil }

// Size returns the number of members of a set-valued fact, or 1 for a base
// fact (a base fact stands for itself).
func (f Fact) Size() int {
	if f.Members == nil {
		return 1
	}
	return len(f.Members)
}

// String returns the fact's identity.
func (f Fact) String() string { return f.ID }

// Set is a set of facts keyed by identity — the F component of an MO.
// Duplicate facts cannot occur.
type Set struct {
	facts map[string]Fact
}

// NewSet returns a set containing the given facts.
func NewSet(facts ...Fact) *Set {
	s := &Set{facts: map[string]Fact{}}
	for _, f := range facts {
		s.Add(f)
	}
	return s
}

// Add inserts a fact (idempotent).
func (s *Set) Add(f Fact) { s.facts[f.ID] = f }

// Grow re-allocates the set pre-sized for n facts, so a bulk load of a
// known size pays one allocation instead of incremental map growth. A
// no-op when the set already holds n or more facts.
func (s *Set) Grow(n int) {
	if n <= len(s.facts) {
		return
	}
	facts := make(map[string]Fact, n)
	for id, f := range s.facts {
		facts[id] = f
	}
	s.facts = facts
}

// Remove deletes a fact by identity.
func (s *Set) Remove(id string) { delete(s.facts, id) }

// Has reports membership by identity.
func (s *Set) Has(id string) bool {
	_, ok := s.facts[id]
	return ok
}

// Get returns the fact with the given identity.
func (s *Set) Get(id string) (Fact, bool) {
	f, ok := s.facts[id]
	return f, ok
}

// Len returns the number of facts.
func (s *Set) Len() int { return len(s.facts) }

// Range calls fn for every fact identity, in unspecified order, stopping
// early when fn returns false; the set must not be mutated during the
// walk.
func (s *Set) Range(fn func(id string) bool) {
	for id := range s.facts {
		if !fn(id) {
			return
		}
	}
}

// IDs returns the sorted fact identities.
func (s *Set) IDs() []string {
	out := make([]string, 0, len(s.facts))
	for id := range s.facts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns the facts sorted by identity.
func (s *Set) All() []Fact {
	ids := s.IDs()
	out := make([]Fact, len(ids))
	for i, id := range ids {
		out[i] = s.facts[id]
	}
	return out
}

// Union returns the set union F1 ∪ F2.
func (s *Set) Union(o *Set) *Set {
	n := NewSet()
	for _, f := range s.facts {
		n.Add(f)
	}
	for _, f := range o.facts {
		n.Add(f)
	}
	return n
}

// Difference returns the set difference F1 \ F2.
func (s *Set) Difference(o *Set) *Set {
	n := NewSet()
	for id, f := range s.facts {
		if !o.Has(id) {
			n.Add(f)
		}
	}
	return n
}

// Equal reports whether the two sets hold the same fact identities.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for id := range s.facts {
		if !o.Has(id) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	n := NewSet()
	for _, f := range s.facts {
		n.Add(f)
	}
	return n
}

// String renders the set as a sorted brace list.
func (s *Set) String() string {
	return "{" + strings.Join(s.IDs(), ", ") + "}"
}

// PairFact builds the fact (f1, f2) produced by the identity-based join:
// the new fact type is the type of pairs of the old fact types.
func PairFact(f1, f2 Fact) Fact {
	return Fact{ID: fmt.Sprintf("(%s,%s)", f1.ID, f2.ID)}
}
