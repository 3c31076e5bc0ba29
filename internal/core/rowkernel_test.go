package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/semiring"
)

// rowCase is one element type of the row-kernel differential test: its
// special values (the ones the inlined arithmetic could get wrong) and how to
// compare two results.
type rowCase[T semiring.Number] struct {
	name     string
	specials []T
	random   func(*rand.Rand) T
	// same reports bitwise equality. NaN payloads are not compared: which
	// operand's payload an addition of two NaNs propagates follows the
	// instruction's operand order, which Go does not pin.
	same func(a, b T) bool
}

func floatCase() rowCase[float64] {
	return rowCase[float64]{
		name: "float64",
		specials: []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e308, -1e308, 5e-324,
			math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64},
		random: func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 },
		same: func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
		},
	}
}

func intCase[T int64 | int32](name string) rowCase[T] {
	max := semiring.MaxValue[T]()
	min := semiring.MinValue[T]()
	return rowCase[T]{
		name:     name,
		specials: []T{0, 1, -1, 2, max, max - 1, min, min + 1, max / 2, max/2 + 1},
		random:   func(r *rand.Rand) T { return T(r.Int63n(2001) - 1000) },
		same:     func(a, b T) bool { return a == b },
	}
}

// builtinSemirings is every constructor that sets a kind, and a user-defined
// semiring that must take the fallback.
func builtinSemirings[T semiring.Number]() []semiring.Semiring[T] {
	user := semiring.Semiring[T]{
		Name: "user-plus-first",
		Add:  semiring.Monoid[T]{Name: "plus", Op: func(a, b T) T { return a + b }},
		Mul:  func(a, _ T) T { return a },
	}
	return []semiring.Semiring[T]{
		semiring.PlusTimes[T](), semiring.MinPlus[T](), semiring.MaxPlus[T](),
		semiring.LOrLAnd[T](), semiring.MinSecond[T](), semiring.MinFirst[T](),
		user,
	}
}

// checkRowKinds runs one seeded row through spmvRow and spaRow twice per
// semiring — with the kind the semiring reports, and with the kind forced to
// generic (the function-valued loops) — and demands identical results.
func checkRowKinds[T semiring.Number](t *testing.T, c rowCase[T], seed int64, rowLen, specialPct uint8) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pick := func() T {
		if r.Intn(100) < int(specialPct)%101 {
			return c.specials[r.Intn(len(c.specials))]
		}
		return c.random(r)
	}
	const m = 24 // result width: short, so a row revisits positions
	cols := make([]int, int(rowLen)%64)
	vals := make([]T, len(cols))
	for k := range cols {
		cols[k] = r.Intn(m)
		vals[k] = pick()
	}
	xv := pick()
	part0 := make([]T, m)
	there0 := make([]bool, m)
	for i := range part0 {
		part0[i] = pick()
		there0[i] = r.Intn(2) == 0
	}

	for _, sr := range builtinSemirings[T]() {
		rk := newRowKernel(sr)
		if builtin := sr.Name != "user-plus-first"; builtin == (rk.kind == semiring.KindGeneric) {
			t.Fatalf("%s/%s: resolved to kind %d", c.name, sr.Name, rk.kind)
		}
		generic := rk
		generic.kind = semiring.KindGeneric

		got := append([]T(nil), part0...)
		want := append([]T(nil), part0...)
		rk.spmvRow(got, cols, vals, xv)
		generic.spmvRow(want, cols, vals, xv)
		for i := range want {
			if !c.same(got[i], want[i]) {
				t.Fatalf("%s/%s spmvRow: part[%d] = %v inlined, %v through the operators (xv=%v cols=%v vals=%v part=%v)",
					c.name, sr.Name, i, got[i], want[i], xv, cols, vals, part0)
			}
		}

		got, want = append(got[:0], part0...), append(want[:0], part0...)
		gotThere := append([]bool(nil), there0...)
		wantThere := append([]bool(nil), there0...)
		gotN := rk.spaRow(got, gotThere, cols, vals, xv)
		wantN := generic.spaRow(want, wantThere, cols, vals, xv)
		if gotN != wantN {
			t.Fatalf("%s/%s spaRow: claimed %d inlined, %d through the operators", c.name, sr.Name, gotN, wantN)
		}
		for i := range want {
			if gotThere[i] != wantThere[i] || (wantThere[i] && !c.same(got[i], want[i])) {
				t.Fatalf("%s/%s spaRow: position %d = (%v,%v) inlined, (%v,%v) through the operators (xv=%v cols=%v vals=%v)",
					c.name, sr.Name, i, gotThere[i], got[i], wantThere[i], want[i], xv, cols, vals)
			}
		}
	}
}

// FuzzSpmvRowKinds is the differential test of the inlined row loops: for
// every built-in semiring kind over float64, int64 and int32, a row computed
// with inlined arithmetic equals, bit for bit, the same row computed through
// the function-valued operators. The seeds cover NaN, ±Inf, -0 and MaxInt
// saturation (a row of special values only), empty rows, and ordinary rows.
func FuzzSpmvRowKinds(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0))   // ordinary values
	f.Add(int64(2), uint8(40), uint8(100)) // special values only
	f.Add(int64(3), uint8(63), uint8(50))
	f.Add(int64(4), uint8(0), uint8(100)) // empty row
	f.Add(int64(5), uint8(1), uint8(100))
	f.Add(int64(6), uint8(33), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, rowLen, specialPct uint8) {
		checkRowKinds(t, floatCase(), seed, rowLen, specialPct)
		checkRowKinds(t, intCase[int64]("int64"), seed, rowLen, specialPct)
		checkRowKinds(t, intCase[int32]("int32"), seed, rowLen, specialPct)
	})
}

// TestSpmvRowKindsSweep runs the fuzz body over a few thousand seeded rows,
// so `go test` exercises far more than the fuzz seeds.
func TestSpmvRowKindsSweep(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		rowLen, pct := uint8(seed*7), uint8(seed*13)
		checkRowKinds(t, floatCase(), seed, rowLen, pct)
		checkRowKinds(t, intCase[int64]("int64"), seed, rowLen, pct)
		checkRowKinds(t, intCase[int32]("int32"), seed, rowLen, pct)
	}
}
