package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
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

// viaOperators returns sr with both operators rewrapped in closures: the same
// arithmetic, but no longer the constructor's code pointers, so every kernel
// resolves it to the generic kind and runs the function-valued loops. It is
// the reference the inlined loops are compared with.
func viaOperators[T semiring.Number](sr semiring.Semiring[T]) semiring.Semiring[T] {
	add, mul := sr.Add.Op, sr.Mul
	sr.Add.Op = func(a, b T) T { return add(a, b) }
	sr.Mul = func(a, b T) T { return mul(a, b) }
	return sr
}

// refSpmvBlock is spmvBlock's oracle, sharing none of its row walk: it takes
// every row through CSR.Row, skips it only when its x entry is id, and folds
// each product in through sr's function-valued operators.
func refSpmvBlock[T semiring.Number](sr semiring.Semiring[T], a *sparse.CSR[T], x []T, id T, y []T) (visited int64) {
	for j := range y {
		y[j] = id
	}
	for i := 0; i < a.NRows; i++ {
		if x[i] == id {
			continue
		}
		cols, vals := a.Row(i)
		visited += int64(len(cols))
		for k, j := range cols {
			y[j] = sr.Add.Op(y[j], sr.Mul(x[i], vals[k]))
		}
	}
	return visited
}

// randBlock builds a valid rows×cols CSR block (sorted, duplicate-free rows of
// at most maxRow entries) with values drawn from pick.
func randBlock[T semiring.Number](r *rand.Rand, rows, cols, maxRow int, pick func() T) *sparse.CSR[T] {
	a := sparse.NewCSR[T](rows, cols)
	for i := 0; i < rows; i++ {
		n := 0
		if maxRow > 0 {
			n = r.Intn(maxRow + 1)
		}
		for _, j := range r.Perm(cols)[:min(n, cols)] {
			a.ColIdx = append(a.ColIdx, j)
		}
		sort.Ints(a.ColIdx[a.RowPtr[i]:])
		for range a.ColIdx[a.RowPtr[i]:] {
			a.Val = append(a.Val, pick())
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// checkRowKinds runs one seeded block through every kind-resolved loop twice
// per semiring — with the semiring as constructed (inlined arithmetic) and
// with its viaOperators twin (the function-valued loops) — and demands
// identical results: spmvBlock (under the semiring's identity and under
// another one, through a copy of the semiring that carries it — a min kind
// then resolves to the generic loop; on the dense block and on the
// hypersparse one, whose empty rows carry special values, and against
// refSpmvBlock too, whose row walk is its own),
// spaRow with and without recording, both local SpGEMM kernels, and the
// column-team reduce over the additive monoid. Each SpGEMM kernel is also run
// under a random mask (possibly empty, with empty rows, reaching outside the
// product's pattern), on a dense and on a hypersparse left operand (the DCSC
// row walk): the masked product is the unmasked one restricted to the mask.
func checkRowKinds[T semiring.Number](t *testing.T, rt *locale.Runtime, c rowCase[T], seed int64, rowLen, specialPct uint8) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pick := func() T {
		if r.Intn(100) < int(specialPct)%101 {
			return c.specials[r.Intn(len(c.specials))]
		}
		return c.random(r)
	}
	const m = 24 // result width: short, so rows revisit positions
	maxRow := int(rowLen) % 64
	a := randBlock(r, 9, m, min(maxRow, m), pick)
	b := randBlock(r, m, m, min(maxRow, m), pick)
	hs := randBlock(r, 64, m, 1, pick) // about half its rows empty: hypersparse
	mask, hsMask := randBlock(r, a.NRows, m, r.Intn(m+1), pick), randBlock(r, hs.NRows, m, r.Intn(m+1), pick)
	x := make([]T, a.NRows)
	for i := range x {
		x[i] = pick()
	}
	cols := make([]int, maxRow) // one unsorted row with repeats, for spaRow
	vals := make([]T, len(cols))
	for k := range cols {
		cols[k] = r.Intn(m)
		vals[k] = pick()
	}
	xv := pick()
	val0 := make([]T, m)
	there0 := make([]bool, m)
	for i := range val0 {
		val0[i] = pick()
		there0[i] = r.Intn(2) == 0
	}
	parts := make([][]T, rt.G.P)
	for l := range parts {
		parts[l] = make([]T, 3+r.Intn(3))
		for i := range parts[l] {
			parts[l][i] = pick()
		}
	}
	sameSlice := func(what, name string, got, want []T) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s/%s %s: %d values inlined, %d through the operators", c.name, name, what, len(got), len(want))
		}
		for i := range want {
			if !c.same(got[i], want[i]) {
				t.Fatalf("%s/%s %s: [%d] = %v inlined, %v through the operators (seed %d rowLen %d pct %d)",
					c.name, name, what, i, got[i], want[i], seed, rowLen, specialPct)
			}
		}
	}

	for _, sr := range builtinSemirings[T]() {
		ref := viaOperators(sr)
		rk, generic := newRowKernel(sr), newRowKernel(ref)
		if builtin := sr.Name != "user-plus-first"; builtin == (rk.kind == semiring.KindGeneric) {
			t.Fatalf("%s/%s: resolved to kind %d", c.name, sr.Name, rk.kind)
		}
		if generic.kind != semiring.KindGeneric || ref.Add.Kind() != semiring.MonoidGeneric {
			t.Fatalf("%s/%s: rewrapped operators kept a built-in kind", c.name, sr.Name)
		}

		for _, id := range []T{sr.AddIdentity(), pick()} {
			withID, refWithID := sr, ref
			withID.Add.Identity, refWithID.Add.Identity = id, id
			rk, generic := newRowKernel(withID), newRowKernel(refWithID)
			// On the hypersparse block, id lands on some nonempty rows and
			// the special values on the empty ones.
			xhs := make([]T, hs.NRows)
			for i := range xhs {
				switch {
				case hs.RowNNZ(i) == 0:
					xhs[i] = c.specials[r.Intn(len(c.specials))]
				case r.Intn(3) == 0:
					xhs[i] = id
				default:
					xhs[i] = pick()
				}
			}
			for _, in := range []struct {
				what string
				a    *sparse.CSR[T]
				x    []T
			}{{"spmvBlock", a, x}, {"spmvBlock/hypersparse", hs, xhs}} {
				got, want, ref := make([]T, m), make([]T, m), make([]T, m)
				gotN := rk.spmvBlock(in.a, in.x, id, got, false)
				wantN := generic.spmvBlock(in.a, in.x, id, want, false)
				refN := refSpmvBlock(sr, in.a, in.x, id, ref)
				if gotN != refN || wantN != refN {
					t.Fatalf("%s/%s %s: visited %d inlined, %d through the operators, %d row by row", c.name, sr.Name, in.what, gotN, wantN, refN)
				}
				sameSlice(in.what, sr.Name, got, want)
				sameSlice(in.what+" (row-by-row reference)", sr.Name, got, ref)
				// Folding the block in once more starts from the product.
				rk.spmvBlock(in.a, in.x, id, got, true)
				generic.spmvBlock(in.a, in.x, id, want, true)
				sameSlice(in.what+" folded", sr.Name, got, want)
			}
		}

		for _, record := range []bool{false, true} {
			got, want := append([]T(nil), val0...), append([]T(nil), val0...)
			gotThere, wantThere := append([]bool(nil), there0...), append([]bool(nil), there0...)
			// Recording starts from a nil slice: what asks for the claimed
			// positions is the pointer, not what it points at.
			var gotNz, wantNz []int
			var gotRec, wantRec *[]int
			if record {
				gotRec, wantRec = &gotNz, &wantNz
			}
			gotN := rk.spaRow(got, gotThere, cols, vals, xv, gotRec)
			wantN := generic.spaRow(want, wantThere, cols, vals, xv, wantRec)
			if gotN != wantN || !slices.Equal(gotNz, wantNz) || (record && len(gotNz) != gotN) || (!record && gotNz != nil) {
				t.Fatalf("%s/%s spaRow: claimed %d %v inlined, %d %v through the operators", c.name, sr.Name, gotN, gotNz, wantN, wantNz)
			}
			for i := range want {
				if gotThere[i] != wantThere[i] || (wantThere[i] && !c.same(got[i], want[i])) {
					t.Fatalf("%s/%s spaRow: position %d = (%v,%v) inlined, (%v,%v) through the operators (xv=%v cols=%v vals=%v)",
						c.name, sr.Name, i, gotThere[i], got[i], wantThere[i], want[i], xv, cols, vals)
				}
			}
		}

		for name, kernel := range map[string]func(*sparse.ScratchPool, *sparse.CSR[T], *sparse.CSR[T], semiring.Semiring[T], *sparse.CSR[T], *sparse.CSR[T]) int64{
			"SpGEMMLocalHash": SpGEMMLocalHash[T], "SpGEMMLocalHeap": SpGEMMLocalHeap[T],
		} {
			sameCSR := func(what string, got, want *sparse.CSR[T]) {
				t.Helper()
				if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
					t.Fatalf("%s/%s %s %s: patterns differ", c.name, sr.Name, name, what)
				}
				sameSlice(name+" "+what, sr.Name, got.Val, want.Val)
			}
			for _, lhs := range []struct{ a, mask *sparse.CSR[T] }{{a, mask}, {hs, hsMask}} {
				var got, want, gotMasked sparse.CSR[T]
				gotN, wantN := kernel(rt.Scratch, lhs.a, b, sr, &got, nil), kernel(rt.Scratch, lhs.a, b, ref, &want, nil)
				if gotN != wantN {
					t.Fatalf("%s/%s %s: %d flops inlined, %d through the operators", c.name, sr.Name, name, gotN, wantN)
				}
				sameCSR("unmasked", &got, &want)
				if n := kernel(rt.Scratch, lhs.a, b, sr, &gotMasked, lhs.mask); n > gotN {
					t.Fatalf("%s/%s %s: %d flops under a mask, %d without", c.name, sr.Name, name, n, gotN)
				}
				sameCSR("masked", &gotMasked, maskOf(&got, lhs.mask))
			}
		}

		got, err := comm.ColReduceScatter(rt, parts, sr.Add)
		if err != nil {
			t.Fatal(err)
		}
		want, err := comm.ColReduceScatter(rt, parts, ref.Add)
		if err != nil {
			t.Fatal(err)
		}
		for l := range want {
			sameSlice("ColReduceScatter", sr.Name, got[l], want[l])
		}
		comm.ReleaseColReduce(rt, got)
		comm.ReleaseColReduce(rt, want)
	}
	if n := rt.Scratch.Outstanding(); n != 0 {
		t.Fatalf("%d arena loans outstanding", n)
	}
}

// checkAllRowCases is the body FuzzSpmvRowKinds and its sweep share.
func checkAllRowCases(t *testing.T, rt *locale.Runtime, seed int64, rowLen, specialPct uint8) {
	t.Helper()
	checkRowKinds(t, rt, floatCase(), seed, rowLen, specialPct)
	checkRowKinds(t, rt, intCase[int64]("int64"), seed, rowLen, specialPct)
	checkRowKinds(t, rt, intCase[int32]("int32"), seed, rowLen, specialPct)
}

// FuzzSpmvRowKinds is the differential test of the kind-resolved loops: for
// every built-in semiring kind over float64, int64 and int32, a block
// computed with inlined arithmetic equals, bit for bit, the same block
// computed through the function-valued operators. The seeds cover NaN, ±Inf,
// -0 and MaxInt saturation (a block of special values only), empty rows, and
// ordinary rows.
func FuzzSpmvRowKinds(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0))   // ordinary values
	f.Add(int64(2), uint8(40), uint8(100)) // special values only
	f.Add(int64(3), uint8(63), uint8(50))
	f.Add(int64(4), uint8(0), uint8(100)) // empty rows
	f.Add(int64(5), uint8(1), uint8(100))
	f.Add(int64(6), uint8(33), uint8(20))
	rt, err := locale.New(machine.Edison(), 4, 24) // 2x2 grid for the reduce
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, rowLen, specialPct uint8) {
		checkAllRowCases(t, rt, seed, rowLen, specialPct)
	})
}

// TestSpmvRowKindsSweep runs the fuzz body over a few hundred seeded
// blocks, so `go test` exercises far more than the fuzz seeds.
func TestSpmvRowKindsSweep(t *testing.T) {
	rt := newRT(t, 4, 24)
	for seed := int64(0); seed < 500; seed++ {
		checkAllRowCases(t, rt, seed, uint8(seed*7), uint8(seed*13))
	}
}
