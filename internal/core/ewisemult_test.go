package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// keepWhenTrue is the paper's experiment predicate: keep x[i] when y[i] is
// "true" (nonzero).
func keepWhenTrue[T semiring.Number](_, y T) bool { return y != 0 }

// TestEWiseMultSDMatchesReference drives the one-worker survivor cursor,
// which writes at every position and advances only past survivors, through
// predicates that keep everything, nothing, every other entry of x, and a
// random half, plus an empty x.
func TestEWiseMultSDMatchesReference(t *testing.T) {
	x0 := sparse.RandomVec[int64](3000, 500, 13)
	// over marks y at the index of x's k-th entry when keep(k), so
	// keepWhenTrue keeps exactly those entries.
	over := func(keep func(k int) bool) *sparse.Dense[int64] {
		y := sparse.NewDense[int64](x0.N)
		for k, i := range x0.Ind {
			if keep(k) {
				y.Data[i] = 1
			}
		}
		return y
	}
	random := sparse.RandomBoolDense[int64](3000, 0.5, 14)
	for _, tc := range []struct {
		name string
		x    *sparse.Vec[int64]
		y    *sparse.Dense[int64]
	}{
		{"all true", x0, over(func(int) bool { return true })},
		{"all false", x0, over(func(int) bool { return false })},
		{"alternating", x0, over(func(k int) bool { return k%2 == 1 })},
		{"random half", x0, random},
		{"empty x", sparse.NewVec[int64](3000), random},
	} {
		want := RefEWiseMultSD(tc.x, tc.y, keepWhenTrue[int64])
		for _, p := range []int{1, 2, 4, 6, 9} {
			rt := newRT(t, p, 24)
			rt.RealWorkers = 1
			x := dist.SpVecFromVec(rt, tc.x)
			y := dist.DenseVecFromDense(rt, tc.y)
			z, err := EWiseMultSD(rt, x, y, keepWhenTrue[int64])
			if err != nil {
				t.Fatal(err)
			}
			if err := z.Validate(); err != nil {
				t.Fatalf("%s, p=%d: %v", tc.name, p, err)
			}
			if !z.ToVec().Equal(want) {
				t.Fatalf("%s, p=%d: EWiseMultSD differs from reference", tc.name, p)
			}
		}
	}
}

func TestEWiseMultSDNoAtomicMatchesReference(t *testing.T) {
	x0 := sparse.RandomVec[int64](3000, 500, 13)
	y0 := sparse.RandomBoolDense[int64](3000, 0.5, 14)
	want := RefEWiseMultSD(x0, y0, keepWhenTrue[int64])
	for _, p := range []int{1, 4} {
		for _, workers := range []int{1, 3, 8} {
			rt := newRT(t, p, 24)
			rt.RealWorkers = workers
			x := dist.SpVecFromVec(rt, x0)
			y := dist.DenseVecFromDense(rt, y0)
			z, err := EWiseMultSDNoAtomic(rt, x, y, keepWhenTrue[int64])
			if err != nil {
				t.Fatal(err)
			}
			if !z.ToVec().Equal(want) {
				t.Fatalf("p=%d workers=%d: no-atomic variant differs", p, workers)
			}
		}
	}
}

func TestEWiseMultSDConcurrentWorkers(t *testing.T) {
	// The atomic-compaction variant must produce the same (sorted) result for
	// any worker count; run with -race to validate the synchronization.
	x0 := sparse.RandomVec[float64](10000, 2500, 21)
	y0 := sparse.RandomBoolDense[float64](10000, 0.4, 22)
	want := RefEWiseMultSD(x0, y0, keepWhenTrue[float64])
	for _, workers := range []int{1, 2, 4, 8} {
		rt := newRT(t, 2, 24)
		rt.RealWorkers = workers
		x := dist.SpVecFromVec(rt, x0)
		y := dist.DenseVecFromDense(rt, y0)
		z, err := EWiseMultSD(rt, x, y, keepWhenTrue[float64])
		if err != nil {
			t.Fatal(err)
		}
		if !z.ToVec().Equal(want) {
			t.Fatalf("workers=%d: result differs", workers)
		}
	}
}

func TestEWiseMultSDKeepsValuesOfX(t *testing.T) {
	rt := newRT(t, 1, 1)
	x0, _ := sparse.VecOf(6, []int{0, 2, 4}, []int64{10, 20, 30})
	y0 := sparse.NewDense[int64](6)
	y0.Data[2] = 1
	y0.Data[4] = 1
	x := dist.SpVecFromVec(rt, x0)
	y := dist.DenseVecFromDense(rt, y0)
	z, err := EWiseMultSD(rt, x, y, keepWhenTrue[int64])
	if err != nil {
		t.Fatal(err)
	}
	zv := z.ToVec()
	if zv.NNZ() != 2 {
		t.Fatalf("kept %d entries, want 2", zv.NNZ())
	}
	if v, _ := zv.Get(2); v != 20 {
		t.Error("z[2] should keep x's value 20")
	}
	if v, _ := zv.Get(4); v != 30 {
		t.Error("z[4] should keep x's value 30")
	}
}

func TestEWiseMultSDCapacityMismatch(t *testing.T) {
	rt := newRT(t, 2, 8)
	x := dist.NewSpVec[int](rt, 10)
	y := dist.NewDenseVec[int](rt, 20)
	if _, err := EWiseMultSD(rt, x, y, keepWhenTrue[int]); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if _, err := EWiseMultSDNoAtomic(rt, x, y, keepWhenTrue[int]); err == nil {
		t.Error("capacity mismatch accepted (no-atomic)")
	}
}

func TestEWiseMultSDEmpty(t *testing.T) {
	rt := newRT(t, 4, 8)
	x := dist.NewSpVec[int](rt, 50)
	y := dist.NewDenseVec[int](rt, 50)
	z, err := EWiseMultSD(rt, x, y, keepWhenTrue[int])
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != 0 {
		t.Error("empty input produced entries")
	}
}

// Fig 4: the atomic compaction caps the 24-thread speedup around the paper's
// 13x, and the no-atomic variant beats it.
func TestEWiseMultModelSpeedup(t *testing.T) {
	x0 := sparse.RandomVec[int64](4_000_000, 1_000_000, 5)
	y0 := sparse.RandomBoolDense[int64](4_000_000, 0.5, 6)
	timeAt := func(threads int, noAtomic bool) float64 {
		rt := newRT(t, 1, threads)
		x := dist.SpVecFromVec(rt, x0)
		y := dist.DenseVecFromDense(rt, y0)
		var err error
		if noAtomic {
			_, err = EWiseMultSDNoAtomic(rt, x, y, keepWhenTrue[int64])
		} else {
			_, err = EWiseMultSD(rt, x, y, keepWhenTrue[int64])
		}
		if err != nil {
			t.Fatal(err)
		}
		return rt.S.Elapsed()
	}
	speedup := timeAt(1, false) / timeAt(24, false)
	if speedup < 8 || speedup > 18 {
		t.Errorf("eWiseMult 24-thread speedup = %.1f, want ~13x (atomics-capped)", speedup)
	}
	// Avoiding the atomics improves the parallel time, as the paper predicts.
	if timeAt(24, true) >= timeAt(24, false) {
		t.Error("no-atomic variant should be faster at 24 threads")
	}
}

// Fig 5: with enough work per locale, distributed eWiseMult scales (it is
// communication-free); with 1M nonzeros over many locales it stops scaling.
func TestEWiseMultModelDistributedScaling(t *testing.T) {
	big := sparse.RandomVec[int64](8_000_000, 2_000_000, 7)
	yb := sparse.RandomBoolDense[int64](8_000_000, 0.5, 8)
	timeAt := func(p int, x0 *sparse.Vec[int64], y0 *sparse.Dense[int64]) float64 {
		rt := newRT(t, p, 24)
		x := dist.SpVecFromVec(rt, x0)
		y := dist.DenseVecFromDense(rt, y0)
		if _, err := EWiseMultSD(rt, x, y, keepWhenTrue[int64]); err != nil {
			t.Fatal(err)
		}
		return rt.S.Elapsed()
	}
	t1 := timeAt(1, big, yb)
	t16 := timeAt(16, big, yb)
	if t1/t16 < 6 {
		t.Errorf("2M-nnz distributed speedup 1->16 nodes = %.1f, want >6", t1/t16)
	}
	small := sparse.RandomVec[int64](400_000, 100_000, 9)
	ys := sparse.RandomBoolDense[int64](400_000, 0.5, 10)
	s1 := timeAt(1, small, ys)
	s64 := timeAt(64, small, ys)
	if s1/s64 > 8 {
		t.Errorf("100K-nnz distributed speedup 1->64 = %.1f; small inputs should not scale", s1/s64)
	}
}
