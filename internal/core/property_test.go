package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// Property-based tests of algebraic invariants that must hold for any input,
// exercised through the distributed operations on a small grid.

// genVec builds a deterministic sparse vector from fuzz bytes.
func genVec(n int, raw []uint16) *sparse.Vec[int64] {
	d := make([]int64, n)
	for i, r := range raw {
		d[i%n] = int64(r%9) - 4 // values in [-4, 4], many zeros
	}
	return denseToVec(d)
}

func TestPropertyApplyComposition(t *testing.T) {
	// Apply(f) then Apply(g) == Apply(g∘f).
	f := func(raw []uint16) bool {
		x0 := genVec(64, raw)
		rt := newRT(t, 4, 8)
		a := dist.SpVecFromVec(rt, x0)
		Apply2(rt, a, func(v int64) int64 { return v + 3 })
		Apply2(rt, a, func(v int64) int64 { return v * 2 })
		b := dist.SpVecFromVec(rt, x0)
		Apply2(rt, b, func(v int64) int64 { return (v + 3) * 2 })
		return a.ToVec().Equal(b.ToVec())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAssignIdempotent(t *testing.T) {
	f := func(raw []uint16) bool {
		x0 := genVec(48, raw)
		rt := newRT(t, 4, 8)
		src := dist.SpVecFromVec(rt, x0)
		dst := dist.NewSpVec[int64](rt, 48)
		if err := Assign2(rt, dst, src); err != nil {
			return false
		}
		once := dst.ToVec()
		if err := Assign2(rt, dst, src); err != nil {
			return false
		}
		return dst.ToVec().Equal(once) && once.Equal(x0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEWiseMultPatternSubset(t *testing.T) {
	// The filtered vector's pattern is a subset of x's, and filtering twice
	// with the same mask is the same as once.
	f := func(raw []uint16, maskRaw []uint16) bool {
		x0 := genVec(48, raw)
		mask := sparse.NewDense[int64](48)
		for i, r := range maskRaw {
			if r%2 == 1 {
				mask.Data[i%48] = 1
			}
		}
		rt := newRT(t, 4, 8)
		x := dist.SpVecFromVec(rt, x0)
		y := dist.DenseVecFromDense(rt, mask)
		z1, err := EWiseMultSD(rt, x, y, func(_, m int64) bool { return m != 0 })
		if err != nil {
			return false
		}
		z2, err := EWiseMultSD(rt, z1, y, func(_, m int64) bool { return m != 0 })
		if err != nil {
			return false
		}
		zv := z1.ToVec()
		for _, i := range zv.Ind {
			if _, ok := x0.Get(i); !ok {
				return false // pattern escaped x
			}
			if mask.Data[i] == 0 {
				return false // mask violated
			}
		}
		return z2.ToVec().Equal(zv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpMSpVPatternIsRowUnion(t *testing.T) {
	// The output pattern equals the union of the column patterns of the rows
	// selected by x.
	f := func(raw []uint16, seed uint8) bool {
		a := sparse.ErdosRenyi[int64](48, 3, int64(seed))
		x := genVec(48, raw)
		y, _ := SpMSpVShm(a, x, ShmConfig{})
		want := map[int]bool{}
		for _, rid := range x.Ind {
			cols, _ := a.Row(rid)
			for _, j := range cols {
				want[j] = true
			}
		}
		if y.NNZ() != len(want) {
			return false
		}
		for _, j := range y.Ind {
			if !want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpMSpVSemiringLinear(t *testing.T) {
	// Over plus-times, (x+y)A == xA + yA for same-pattern-capacity vectors.
	sr := semiring.PlusTimes[int64]()
	f := func(rawX, rawY []uint16, seed uint8) bool {
		a := sparse.ErdosRenyi[int64](40, 3, int64(seed))
		x := genVec(40, rawX)
		y := genVec(40, rawY)
		sum, err := EWiseAddSS(x, y, semiring.Plus[int64])
		if err != nil {
			return false
		}
		// Entries that cancel to zero must be dropped for the comparison,
		// since SpMSpV iterates stored entries: keep semantics consistent by
		// filtering explicit zeros.
		sum = SelectVec(sum, func(_ int, v int64) bool { return v != 0 })
		left := RefSpMSpVSemiring(a, sum, sr)
		xa := RefSpMSpVSemiring(a, x, sr)
		ya := RefSpMSpVSemiring(a, y, sr)
		right, err := EWiseAddSS(xa, ya, semiring.Plus[int64])
		if err != nil {
			return false
		}
		// Compare as dense to tolerate explicit zeros in either side.
		ld := left.ToDense(0)
		rd := right.ToDense(0)
		for i := range ld {
			if ld[i] != rd[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReduceMatchesSum(t *testing.T) {
	f := func(raw []uint16) bool {
		x0 := genVec(96, raw)
		var want int64
		for _, v := range x0.Val {
			want += v
		}
		rt := newRT(t, 6, 8)
		x := dist.SpVecFromVec(rt, x0)
		got, err := ReduceDist(rt, x, semiring.PlusMonoid[int64]())
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
