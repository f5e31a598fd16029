package plan

import (
	"fmt"

	"mddm/internal/agg"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/storage"
)

// checkSummarizable reproduces agg.CheckSummarizable over the engine's
// indexes instead of per-fact model walks. Strictness of a selected path
// is a column probe (MultiValued): a fact whose characterization column
// code is the multi-value sentinel is exactly a fact with two admitted
// ancestors in the category. The covering check is a hierarchy property,
// memoized by the engine per (dimension, category pair, context). Reason
// texts and ordering match agg.CheckSummarizable verbatim.
func checkSummarizable(eng *storage.Engine, m *core.MO, fn *agg.Func, groupBy map[string]string, ectx dimension.Context, sel *storage.Bitmap) agg.Report {
	rep := agg.Report{Summarizable: true}
	fail := func(format string, args ...any) {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, fmt.Sprintf(format, args...))
	}
	if !fn.Distributive {
		fail("function %s is not distributive", fn.Name)
	}
	for _, dimName := range m.Schema().DimensionNames() {
		cat, ok := groupBy[dimName]
		if !ok || cat == dimension.TopName {
			continue
		}
		d := m.Dimension(dimName)
		if eng.MultiValued(dimName, cat, sel) {
			fail("path from %s facts to %s/%s is non-strict",
				m.Schema().FactType(), dimName, cat)
		}
		for _, below := range d.Type().CategoryTypes() {
			if below == cat || !d.Type().LessEq(below, cat) {
				continue
			}
			if !eng.Covering(dimName, below, cat, ectx) {
				fail("hierarchy %s: category %s does not fully roll up into %s",
					dimName, below, cat)
			}
		}
	}
	return rep
}
