package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
)

// sortedValidate is Validate's reference definition: per dimension, the
// first bad pair in (fact, value) order — an unknown fact checked before
// an unknown value — then the first fact, in identity order, without a
// value.
func sortedValidate(m *core.MO) error {
	for _, name := range m.Schema().DimensionNames() {
		d := m.Dimension(name)
		r := m.Relation(name)
		for _, p := range r.Pairs() {
			if !m.Facts().Has(p.FactID) {
				return fmt.Errorf("core: relation %q references unknown fact %q", name, p.FactID)
			}
			if !d.Has(p.ValueID) {
				return fmt.Errorf("core: relation %q references unknown value %q", name, p.ValueID)
			}
		}
		for _, id := range m.Facts().IDs() {
			if len(r.ValuesOf(id)) == 0 {
				return fmt.Errorf("core: fact %q has no value in dimension %q (add (f,⊤) for unknown)", id, name)
			}
		}
	}
	return nil
}

// TestValidateMatchesSortedDefinition injects unknown facts, unknown
// values and missing characterizations into generated MOs and requires
// Validate's first error to be the sorted definition's, byte for byte.
// EnsureTotal must then repair exactly the missing characterizations.
func TestValidateMatchesSortedDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	kinds := map[string]int{}
	for trial := 0; trial < 150; trial++ {
		cfg := casestudy.DefaultGen()
		cfg.Patients = 25
		cfg.Seed = int64(trial)
		m := casestudy.MustGenerate(cfg)
		dims := m.Schema().DimensionNames()
		for k := 0; k < r.Intn(4); k++ {
			dim := dims[r.Intn(len(dims))]
			vals := m.Dimension(dim).Values()
			switch r.Intn(4) {
			case 0: // a pair of a fact not in F
				m.Relation(dim).Add(fmt.Sprintf("p%dx", r.Intn(30)), vals[r.Intn(len(vals))])
			case 1: // a pair of a value not in the dimension
				m.Relation(dim).Add(fmt.Sprintf("p%d", r.Intn(cfg.Patients)), fmt.Sprintf("nowhere%d", r.Intn(3)))
			case 2: // a fact in F without any value in one dimension
				m.AddFact(factOf(fmt.Sprintf("lonely%d", r.Intn(5))))
			case 3: // a fact removed from F, its pairs left behind
				m.Facts().Remove(fmt.Sprintf("p%d", r.Intn(cfg.Patients)))
			}
		}
		want := sortedValidate(m)
		got := m.Validate()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate() = %v, sorted definition %v", trial, got, want)
		}
		switch msg := fmt.Sprint(want); {
		case want == nil:
			kinds["valid"]++
		case strings.Contains(msg, "unknown fact"):
			kinds["unknown fact"]++
		case strings.Contains(msg, "unknown value"):
			kinds["unknown value"]++
		default:
			kinds["no value"]++
		}

		m.EnsureTotal()
		for _, name := range dims {
			rel := m.Relation(name)
			for _, id := range m.Facts().IDs() {
				if rel.ValuesLen(id) == 0 {
					t.Fatalf("trial %d: EnsureTotal left %q without a value in %q", trial, id, name)
				}
			}
		}
		if got, want := m.Validate(), sortedValidate(m); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d after EnsureTotal: Validate() = %v, sorted definition %v", trial, got, want)
		}
	}
	if len(kinds) < 4 {
		t.Fatalf("fixtures reached too few outcomes: %v", kinds)
	}
}

// TestEnsureTotalAddsTopOnly checks EnsureTotal relates each uncovered
// fact to ⊤ and touches no covered fact.
func TestEnsureTotalAddsTopOnly(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 20
	m := casestudy.MustGenerate(cfg)
	before := m.Relation(casestudy.DimAge).Len()
	m.AddFact(factOf("lonely"))
	m.EnsureTotal()
	for _, name := range m.Schema().DimensionNames() {
		if vs := m.Relation(name).ValuesOf("lonely"); len(vs) != 1 || vs[0] != dimension.TopValue {
			t.Fatalf("%s: lonely relates to %v, want [⊤]", name, vs)
		}
	}
	if got := m.Relation(casestudy.DimAge).Len(); got != before+1 {
		t.Fatalf("Age relation has %d pairs, want %d", got, before+1)
	}
}
