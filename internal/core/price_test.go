package core

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/sparse"
)

// The inspector prices communication through internal/comm's prices (whose
// equality with the collectives' charges internal/comm's own
// TestPricesEqualCharges holds). These tests tie each estimate to the charge
// of the path it prices, on fault-free runtimes over the SpMSpV output pin's
// six grids, where the estimate's argument allows it:
//
//   - The gather halves of EstimateSpMSpVComm are exact: per-locale frontier
//     counts are known before the run, so each equals, bit for bit, the
//     largest clock the pipeline's gather leaves on a fresh runtime.
//   - A pull round's collectives are priced on the mean band (pullCommTime):
//     that is every locale's charge when the grid divides n, and a lower
//     bound on it otherwise, since a band is the mean rounded down or up.
//   - The scatter halves of EstimateSpMSpVComm are not tied to the charge.
//     They price an assumed layout — every destination receiving from its
//     Pc-1 row neighbours — from an expected products count, and no bound
//     holds either way: on the 1x7 grid the bulk half reads 20 to 500 times
//     the charged scatter, on 2x2 about half of it. The inspector corrects
//     only the products count (observe).

func TestSpMSpVGatherEstimateIsCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, p := range []int{1, 4, 6, 7, 9, 16} {
		for trial := 0; trial < 6; trial++ {
			n := 100 + rng.Intn(600)
			a0 := sparse.ErdosRenyi[int64](n, float64(1+rng.Intn(12)), rng.Int63())
			x0 := sparse.RandomVec[int64](n, rng.Intn(n/2), rng.Int63())
			rt := newRT(t, p, 24)
			e := EstimateSpMSpVComm(rt, dist.MatFromCSR(rt, a0), dist.SpVecFromVec(rt, x0))
			for _, bulk := range []bool{false, true} {
				r := newRT(t, p, 24)
				var st DistStats
				lxs, err := gatherRowBands(r, dist.MatFromCSR(r, a0), dist.SpVecFromVec(r, x0), bulk, &st)
				if err != nil {
					t.Fatal(err)
				}
				charged := 0.0
				for l, lx := range lxs {
					charged = max(charged, r.S.Clock(l))
					sparse.PutVec(r.Scratch, lx)
				}
				if want := map[bool]float64{false: e.fineGather, true: e.bulkGather}[bulk]; charged != want {
					t.Errorf("%dx%d n=%d nnz(x)=%d bulk=%v: gather charged %v, estimated %v", r.G.Pr, r.G.Pc, n, x0.NNZ(), bulk, charged, want)
				}
			}
		}
	}
}

func TestBFSPullCommEstimateBoundsCharge(t *testing.T) {
	for _, p := range []int{1, 4, 6, 7, 9, 16} {
		for _, n := range []int{144 * 35, 611, 1000, 1009} {
			rt := newRT(t, p, 24)
			g := rt.G
			gather, reduce := pullCommTime(rt, n)
			price := gather + reduce
			// The pull round's row gather of frontier ids (one per vertex of
			// each locale's block) and column reduce over the column bands.
			bounds := locale.BlockBounds(n, g.P)
			ids := make([][]int64, g.P)
			for l := range ids {
				ids[l] = make([]int64, bounds[l+1]-bounds[l])
			}
			bands, err := comm.RowAllGather(rt, ids)
			if err != nil {
				t.Fatal(err)
			}
			comm.ReleaseRowGather(rt, bands)
			reduced := comm.LendColBands[int64](rt, locale.BlockBounds(n, g.Pc))
			if err := comm.ColReduceInPlace(rt, reduced); err != nil {
				t.Fatal(err)
			}
			comm.ReleaseColReduce(rt, reduced)
			divides := n%g.Pr == 0 && n%g.Pc == 0
			for l := 0; l < g.P; l++ {
				charged := rt.S.Clock(l)
				if divides && charged != price || charged < price {
					t.Errorf("%dx%d n=%d: locale %d charged %v, priced %v (grid divides n: %v)", g.Pr, g.Pc, n, l, charged, price, divides)
				}
			}
		}
	}
}
