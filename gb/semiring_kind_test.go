package gb

import (
	"testing"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// TestReassignedOperatorOnBuiltinCopy pins that the built-in tag cannot lie:
// Semiring is a plain struct, so a caller may copy PlusTimes and swap an
// operator. The kernels inline built-in arithmetic, and must fall back to
// the function-valued operators for such a copy — in SpMV, in SpMSpVSemiring,
// and in a PageRank-style loop that feeds SpMV its own output.
func TestReassignedOperatorOnBuiltinCopy(t *testing.T) {
	a := sparse.ErdosRenyi[float64](400, 6, 91)
	xs := sparse.RandomVec[float64](a.NRows, 60, 92)
	xd := make([]float64, a.NRows)
	for i := range xd {
		xd[i] = float64(i%7) + 0.5
	}

	mine := PlusTimes[float64]()
	mine.Mul = func(x, v float64) float64 { return x - v/4 } // no longer ×
	plain := PlusTimes[float64]()

	for _, opts := range [][]Option{
		{Locales(1), Threads(4)},
		{Locales(4), Threads(4)},
		{Locales(4), Threads(4), WithFusion(Eager)},
	} {
		ctx, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		m := MatrixFromCSR(ctx, a)

		spmv := func(x []float64, sr Semiring[float64]) []float64 {
			t.Helper()
			y, err := SpMV(m, DenseVectorFromSlice(ctx, append([]float64(nil), x...)), sr)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, a.NCols)
			for i := range out {
				out[i] = y.Get(i)
			}
			return out
		}
		got, want := spmv(xd, mine), core.RefSpMV(a, xd, mine)
		builtin := spmv(xd, plain)
		differs := false
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SpMV[%d] = %g with the reassigned Mul, want %g", i, got[i], want[i])
			}
			differs = differs || got[i] != builtin[i]
		}
		if !differs {
			t.Fatal("the reassigned Mul gives the built-in's result: the test cannot tell them apart")
		}

		gx, err := VectorFromSlices(ctx, xs.N, xs.Ind, xs.Val)
		if err != nil {
			t.Fatal(err)
		}
		y, err := SpMSpVSemiring(m, gx, mine)
		if err != nil {
			t.Fatal(err)
		}
		ind, val := y.Entries()
		if !(&sparse.Vec[float64]{N: a.NCols, Ind: ind, Val: val}).Equal(core.RefSpMSpVSemiring(a, xs, mine)) {
			t.Fatal("SpMSpVSemiring ignores the reassigned Mul")
		}

		cur, ref := xd, xd
		for iter := 0; iter < 3; iter++ {
			cur, ref = spmv(cur, mine), core.RefSpMV(a, ref, mine)
		}
		for i := range ref {
			if cur[i] != ref[i] {
				t.Fatalf("iterated SpMV[%d] = %g with the reassigned Mul, want %g", i, cur[i], ref[i])
			}
		}
	}
}

// TestReassignedMonoidOpOnBuiltinCopy is the same pin for Monoid.Kind, which
// the column-team reduce of the distributed SpMV and the SUMMA SpGEMM read: a
// copy of PlusTimes whose Add.Op now takes the maximum, and a struct-literal
// monoid around the very same Plus, must both run through the function-valued
// operator — on one locale (no reduce), on a grid, eager and fused.
func TestReassignedMonoidOpOnBuiltinCopy(t *testing.T) {
	a := sparse.ErdosRenyi[float64](400, 6, 93)
	xd := make([]float64, a.NRows)
	for i := range xd {
		xd[i] = float64(i%7) + 0.5
	}
	plain := PlusTimes[float64]()
	mine := PlusTimes[float64]()
	mine.Add.Op = func(x, y float64) float64 { return max(x, y) } // no longer +
	literal := PlusTimes[float64]()
	literal.Add = Monoid[float64]{Name: "my-plus", Op: plain.Add.Op}
	if mine.Add.Kind() != semiring.MonoidGeneric || literal.Add.Kind() != semiring.MonoidGeneric || plain.Add.Kind() != semiring.MonoidPlus {
		t.Fatalf("monoid kinds: reassigned %d, literal %d, built-in %d", mine.Add.Kind(), literal.Add.Kind(), plain.Add.Kind())
	}

	for _, opts := range [][]Option{
		{Locales(1), Threads(4)},
		{Locales(4), Threads(4)},
		{Locales(6), Threads(4), WithFusion(Eager)},
	} {
		ctx, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		m := MatrixFromCSR(ctx, a)
		spmv := func(sr Semiring[float64]) []float64 {
			t.Helper()
			y, err := SpMV(m, DenseVectorFromSlice(ctx, append([]float64(nil), xd...)), sr)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, a.NCols)
			for i := range out {
				out[i] = y.Get(i)
			}
			return out
		}
		got, want, builtin := spmv(mine), core.RefSpMV(a, xd, mine), spmv(plain)
		differs := false
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SpMV[%d] = %g with the reassigned Add.Op, want %g", i, got[i], want[i])
			}
			differs = differs || got[i] != builtin[i]
		}
		if !differs {
			t.Fatal("the reassigned Add.Op gives the built-in's result: the test cannot tell them apart")
		}
		for i, v := range spmv(literal) {
			if v != builtin[i] {
				t.Fatalf("SpMV[%d] = %g over a struct-literal plus monoid, %g over the built-in", i, v, builtin[i])
			}
		}

		c, err := MxM(m, m, mine)
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := c.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !gotC.Equal(core.RefSpGEMM(a, a, mine)) {
			t.Fatal("MxM ignores the reassigned Add.Op")
		}
	}
}
