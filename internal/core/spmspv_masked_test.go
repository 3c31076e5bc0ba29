package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sparse"
)

func TestSpMSpVDistMaskedMatchesFilteredReference(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](173, 6, 71)
	x0 := sparse.RandomVec[int64](173, 25, 72)
	mask0 := sparse.RandomBoolDense[int64](173, 0.5, 73)
	want := restrict(RefSpMSpVPattern(a0, x0), mask0.Data, true)
	for _, p := range []int{1, 2, 4, 6, 9} {
		rt := newRT(t, p, 24)
		a := dist.MatFromCSR(rt, a0)
		x := dist.SpVecFromVec(rt, x0)
		mask := dist.DenseVecFromDense(rt, mask0)
		y, st, _ := SpMSpVDistMasked(rt, a, x, mask)
		if err := y.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		yv := y.ToVec()
		if len(yv.Ind) != len(want.Ind) {
			t.Fatalf("p=%d: pattern size %d, want %d", p, len(yv.Ind), len(want.Ind))
		}
		for k := range yv.Ind {
			if yv.Ind[k] != want.Ind[k] {
				t.Fatalf("p=%d: pattern differs at %d", p, k)
			}
		}
		// Discoverer validity.
		inX := map[int]bool{}
		for _, i := range x0.Ind {
			inX[i] = true
		}
		for k, j := range yv.Ind {
			rid := int(yv.Val[k])
			if !inX[rid] {
				t.Fatalf("p=%d: discoverer %d not in x", p, rid)
			}
			if _, ok := a0.Get(rid, j); !ok {
				t.Fatalf("p=%d: discoverer %d lacks column %d", p, rid, j)
			}
		}
		if st.NnzOut != yv.NNZ() {
			t.Errorf("p=%d: stats wrong", p)
		}
	}
}

func TestSpMSpVDistMaskedEmptyAndFullMasks(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](80, 5, 74)
	x0 := sparse.RandomVec[int64](80, 12, 75)
	rt := newRT(t, 4, 24)
	a := dist.MatFromCSR(rt, a0)
	x := dist.SpVecFromVec(rt, x0)
	// Empty mask (all zeros) = unmasked result.
	zero := dist.DenseVecFromDense(rt, sparse.NewDense[int64](80))
	y, _, _ := SpMSpVDistMasked(rt, a, x, zero)
	rt2 := newRT(t, 4, 24)
	a2 := dist.MatFromCSR(rt2, a0)
	x2 := dist.SpVecFromVec(rt2, x0)
	plain, _ := SpMSpVDist(rt2, a2, x2)
	if !y.ToVec().Equal(plain.ToVec()) {
		t.Fatal("zero mask differs from unmasked")
	}
	// Full mask suppresses everything.
	rt3 := newRT(t, 4, 24)
	a3 := dist.MatFromCSR(rt3, a0)
	x3 := dist.SpVecFromVec(rt3, x0)
	ones := dist.DenseVecFromDense(rt3, sparse.NewDenseFill[int64](80, 1))
	empty, _, _ := SpMSpVDistMasked(rt3, a3, x3, ones)
	if empty.NNZ() != 0 {
		t.Fatalf("full mask left %d entries", empty.NNZ())
	}
}

func TestSpMSpVDistMaskedReducesScatterTraffic(t *testing.T) {
	// The fused mask must send fewer scatter messages than multiply-then-
	// filter when the mask suppresses a large fraction of the output.
	a0 := sparse.ErdosRenyi[int64](5000, 12, 76)
	x0 := sparse.RandomVec[int64](5000, 300, 77)
	mask0 := sparse.RandomBoolDense[int64](5000, 0.9, 78) // 90% suppressed

	rtMasked := newRT(t, 16, 24)
	aM := dist.MatFromCSR(rtMasked, a0)
	xM := dist.SpVecFromVec(rtMasked, x0)
	mM := dist.DenseVecFromDense(rtMasked, mask0)
	yM, stM, _ := SpMSpVDistMasked(rtMasked, aM, xM, mM)

	rtPlain := newRT(t, 16, 24)
	aP := dist.MatFromCSR(rtPlain, a0)
	xP := dist.SpVecFromVec(rtPlain, x0)
	yP, stP := SpMSpVDist(rtPlain, aP, xP)

	if stM.ScatteredMsgs >= stP.ScatteredMsgs/2 {
		t.Errorf("fused mask scattered %d elements vs %d unmasked — expected a large cut",
			stM.ScatteredMsgs, stP.ScatteredMsgs)
	}
	// And the result matches post-filtering the unmasked output.
	filtered := SelectDist(rtPlain, yP, func(i int, _ int64) bool { return mask0.Data[i] == 0 })
	if !yM.ToVec().Equal(filtered.ToVec()) {
		t.Fatal("fused mask result differs from multiply-then-filter")
	}
}

// The masked multiply is the same work eager and fused, so it costs the same
// modeled time: the mask broadcast, the gather and the local multiply with
// its mask filter. (The eager path once charged the filter after recycling
// the vector it counts, i.e. for zero items.)
func TestSpMSpVDistMaskedClockMatchesFused(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](5000, 12, 76)
	x0 := sparse.RandomVec[int64](5000, 300, 77)
	mask0 := sparse.RandomBoolDense[int64](5000, 0.5, 78)
	for _, p := range []int{1, 4, 6} {
		rtE, rtF := newRT(t, p, 24), newRT(t, p, 24)
		SpMSpVDistMasked(rtE, dist.MatFromCSR(rtE, a0), dist.SpVecFromVec(rtE, x0), dist.DenseVecFromDense(rtE, mask0))
		FusedSpMSpVMaskedAssign(rtF, dist.MatFromCSR(rtF, a0), dist.SpVecFromVec(rtF, x0),
			dist.DenseVecFromDense(rtF, mask0), dist.NewSpVec[int64](rtF, 5000))
		for _, phase := range []string{"Mask Broadcast", "Gather Input", "Local Multiply"} {
			if e, f := phaseNS(rtE.S, phase), phaseNS(rtF.S, phase); e != f || (e == 0 && phase == "Local Multiply") {
				t.Errorf("p=%d %s: eager %v ns, fused %v ns", p, phase, e, f)
			}
		}
	}
}
