package agg

import (
	"encoding/binary"
	"math"
	"testing"
)

// foldFuncs lists the registered functions a Fold can answer.
func foldFuncs() []*Func {
	var out []*Func
	for _, name := range Names() {
		if g := MustLookup(name); g.FromFold != nil {
			out = append(out, g)
		}
	}
	return out
}

// addAll folds vals into st with sequential Adds and returns it.
func addAll(st State, vals []float64) State {
	for _, v := range vals {
		st.Add(v)
	}
	return st
}

func sameResult(aRes float64, aOK bool, bRes float64, bOK bool) bool {
	return aOK == bOK && math.Float64bits(aRes) == math.Float64bits(bRes)
}

// checkFromFold asserts, for every Fold-capable builtin, that the state
// seeded from a Fold over xs finalizes bitwise equal to sequential Adds
// and to Eval, and that a Clone of it continued with ys equals the
// sequential fold of xs followed by ys.
func checkFromFold(t *testing.T, xs, ys []float64) {
	t.Helper()
	var f Fold
	for _, x := range xs {
		f.Add(x)
	}
	all := append(append([]float64(nil), xs...), ys...)
	for _, g := range foldFuncs() {
		seeded := g.FromFold(f)
		gotRes, gotOK := seeded.Finalize()
		seqRes, seqOK := addAll(g.NewState(), xs).Finalize()
		evalRes, evalOK := g.Eval(xs)
		if !sameResult(gotRes, gotOK, seqRes, seqOK) || !sameResult(gotRes, gotOK, evalRes, evalOK) {
			t.Fatalf("%s over %v: FromFold %v,%v; sequential %v,%v; Eval %v,%v",
				g.Name, xs, gotRes, gotOK, seqRes, seqOK, evalRes, evalOK)
		}
		contRes, contOK := addAll(seeded.Clone(), ys).Finalize()
		wantRes, wantOK := addAll(g.NewState(), all).Finalize()
		evalRes, evalOK = g.Eval(all)
		if !sameResult(contRes, contOK, wantRes, wantOK) || !sameResult(contRes, contOK, evalRes, evalOK) {
			t.Fatalf("%s over %v then %v: continued %v,%v; sequential %v,%v; Eval %v,%v",
				g.Name, xs, ys, contRes, contOK, wantRes, wantOK, evalRes, evalOK)
		}
		// The continuation must not have touched the seeded state.
		if againRes, againOK := seeded.Finalize(); !sameResult(againRes, againOK, gotRes, gotOK) {
			t.Fatalf("%s: Clone continuation mutated the seeded state", g.Name)
		}
	}
}

// TestFromFoldRegistered pins which builtins carry a FromFold hook: every
// mergeable argument-taking function, so none of them is routed away from
// the planner's group fold.
func TestFromFoldRegistered(t *testing.T) {
	for _, name := range Names() {
		g := MustLookup(name)
		want := g.NeedsArg && g.Mergeable()
		if (g.FromFold != nil) != want {
			t.Errorf("%s: FromFold registered = %v, want %v", name, g.FromFold != nil, want)
		}
	}
}

// TestFromFoldSpecialValues runs the FromFold contract over hand-picked
// inputs: empty, signed zeros, infinities, NaN in every position, and a
// sum whose rounding depends on the addition order.
func TestFromFoldSpecialValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		nil,
		{negZero},
		{negZero, negZero},
		{0, negZero},
		{inf, -inf},
		{nan},
		{1, nan, -1},
		{nan, 5, -5},
		{3, inf, nan},
		{1e16, 1, -1e16, 1},
		{0.1, 0.2, 0.3},
	}
	for _, xs := range cases {
		for split := 0; split <= len(xs); split++ {
			checkFromFold(t, xs[:split], xs[split:])
		}
	}
}

// FuzzFromFold decodes the input as little-endian float64s (any bit
// pattern: NaN payloads, infinities, −0, subnormals) and splits them at a
// position the first byte picks into a folded prefix and a continuation.
func FuzzFromFold(f *testing.F) {
	enc := func(split byte, vals ...float64) []byte {
		b := []byte{split}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(0))
	f.Add(enc(1, math.Copysign(0, -1), 0))
	f.Add(enc(2, math.NaN(), 1, math.Inf(-1)))
	f.Add(enc(1, math.Inf(1), math.Inf(-1), 2))
	f.Add(enc(3, 1e16, 1, -1e16, 1, 0.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkFromFold(t, nil, nil)
			return
		}
		split, data := int(data[0]), data[1:]
		vals := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		split %= len(vals) + 1
		checkFromFold(t, vals[:split], vals[split:])
	})
}
