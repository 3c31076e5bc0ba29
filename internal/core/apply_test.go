package core

import (
	"repro/internal/semiring"
	"repro/internal/sim"
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

func newRT(t *testing.T, p, threads int) *locale.Runtime {
	t.Helper()
	rt, err := locale.New(machine.Edison(), p, threads)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestApplyBothVariantsMatchReference(t *testing.T) {
	x0 := sparse.RandomVec[int64](1000, 120, 3)
	double := func(v int64) int64 { return 2 * v }
	want := RefApply(x0, double)
	for _, p := range []int{1, 2, 4, 6} {
		rt := newRT(t, p, 24)
		x1 := dist.SpVecFromVec(rt, x0)
		Apply1(rt, x1, double)
		if !x1.ToVec().Equal(want) {
			t.Fatalf("p=%d: Apply1 result differs from reference", p)
		}
		x2 := dist.SpVecFromVec(rt, x0)
		Apply2(rt, x2, double)
		if !x2.ToVec().Equal(want) {
			t.Fatalf("p=%d: Apply2 result differs from reference", p)
		}
	}
}

func TestApplyEmptyVector(t *testing.T) {
	rt := newRT(t, 4, 8)
	x := dist.NewSpVec[float64](rt, 100)
	Apply1(rt, x, func(v float64) float64 { return v + 1 })
	Apply2(rt, x, func(v float64) float64 { return v + 1 })
	if x.NNZ() != 0 {
		t.Fatal("apply on empty vector created entries")
	}
}

func TestApplyWithRealWorkers(t *testing.T) {
	x0 := sparse.RandomVec[int64](5000, 600, 7)
	want := RefApply(x0, func(v int64) int64 { return v * v })
	rt := newRT(t, 2, 24)
	rt.RealWorkers = 4
	x := dist.SpVecFromVec(rt, x0)
	Apply2(rt, x, func(v int64) int64 { return v * v })
	if !x.ToVec().Equal(want) {
		t.Fatal("Apply2 with 4 workers differs from reference")
	}
}

func TestApplyMatBothVariants(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](80, 5, 11)
	neg := func(v int64) int64 { return -v }
	want := a0.Clone()
	ApplyCSR(want, neg)
	for _, p := range []int{1, 4, 6} {
		rt := newRT(t, p, 24)
		m1 := dist.MatFromCSR(rt, a0)
		ApplyMat1(rt, m1, neg)
		got1, err := m1.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got1.Equal(want) {
			t.Fatalf("p=%d: ApplyMat1 differs", p)
		}
		m2 := dist.MatFromCSR(rt, a0)
		ApplyMat2(rt, m2, neg)
		got2, err := m2.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got2.Equal(want) {
			t.Fatalf("p=%d: ApplyMat2 differs", p)
		}
	}
}

// The central performance claim of Fig 1 (right): distributed Apply1 pays
// fine-grained communication and is orders of magnitude slower than Apply2.
func TestApplyModelDistributedGap(t *testing.T) {
	x0 := sparse.RandomVec[int64](200000, 50000, 1)
	inc := func(v int64) int64 { return v + 1 }

	rt1 := newRT(t, 8, 24)
	x := dist.SpVecFromVec(rt1, x0)
	Apply1(rt1, x, inc)
	t1 := rt1.S.Elapsed()

	rt2 := newRT(t, 8, 24)
	x = dist.SpVecFromVec(rt2, x0)
	Apply2(rt2, x, inc)
	t2 := rt2.S.Elapsed()

	if t1 < 50*t2 {
		t.Errorf("distributed Apply1 (%.2fms) should be >>50x slower than Apply2 (%.2fms)",
			t1/1e6, t2/1e6)
	}
	if rt1.S.Traffic().FineOps == 0 {
		t.Error("Apply1 recorded no fine-grained traffic")
	}
	if rt2.S.Traffic().FineOps != 0 {
		t.Error("Apply2 should perform no communication")
	}
}

// Fig 1 (left): on a single locale both variants scale near-linearly.
func TestApplyModelSharedMemoryScaling(t *testing.T) {
	x0 := sparse.RandomVec[int64](1000000, 1000000, 2) // fully dense pattern
	inc := func(v int64) int64 { return v + 1 }
	timeAt := func(threads int) float64 {
		rt := newRT(t, 1, threads)
		x := dist.SpVecFromVec(rt, x0)
		Apply2(rt, x, inc)
		return rt.S.Elapsed()
	}
	t1 := timeAt(1)
	t24 := timeAt(24)
	speedup := t1 / t24
	if speedup < 12 || speedup > 26 {
		t.Errorf("shared-memory Apply speedup at 24 threads = %.1f, want near-linear (~20)", speedup)
	}
}

// ApplyMat1 is Apply1 for a 2-D block-distributed matrix.
func ApplyMat1[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], op semiring.UnaryOp[T]) {
	defer rt.Span("ApplyMat1").End()
	totalItems := int64(0)
	remoteItems := int64(0)
	for l, b := range a.Blocks {
		n := b.NNZ()
		totalItems += int64(n)
		if l != 0 {
			remoteItems += int64(n)
		}
		applyLocal(rt, b.Val, op)
	}
	rt.S.Compute(0, rt.Threads, sim.Kernel{
		Name:         "applymat1",
		Items:        totalItems,
		CPUPerItem:   costApplyCPU,
		BytesPerItem: costApplyBytes,
	})
	if remoteItems > 0 {
		o := rt.FineLatencyOpts(0, 1, 2*remoteItems, bytesPerEntry, 1)
		o.Overlap = 1
		rt.S.FineGrained(0, o)
	}
}

// RefApply returns a copy of x with op applied to every stored value.
func RefApply[T semiring.Number](x *sparse.Vec[T], op semiring.UnaryOp[T]) *sparse.Vec[T] {
	out := x.Clone()
	for i := range out.Val {
		out.Val[i] = op(out.Val[i])
	}
	return out
}
