package comm

import (
	"math/rand"
	"testing"

	"repro/internal/locale"
	"repro/internal/semiring"
)

// TestPricesEqualCharges: on a fault-free runtime every exported price is,
// bit for bit, what its collective then adds to each locale's clock. Each
// collective runs on a fresh runtime, whose clocks start at 0, and each
// price adds its terms in the order the charge does, so not even the last
// bit may differ. The grids are the SpMSpV output pin's six (one locale per
// node) and the same counts on one node, where the sparse collectives and
// the team broadcast take the intra-node hop.
func TestPricesEqualCharges(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, p := range []int{1, 4, 6, 7, 9, 16} {
		for _, oneNode := range []bool{false, true} {
			fresh := func() *locale.Runtime {
				if oneNode {
					return oneNodeRT(t, p)
				}
				return newRT(t, p)
			}
			check := func(what string, rt *locale.Runtime, price func(l int) float64) {
				t.Helper()
				for l := 0; l < rt.G.P; l++ {
					if got, want := rt.S.Clock(l), price(l); got != want {
						t.Errorf("%dx%d (one node %v) %s: locale %d charged %v, priced %v", rt.G.Pr, rt.G.Pc, oneNode, what, l, got, want)
					}
				}
			}
			for trial := 0; trial < 4; trial++ {
				const n = 500
				inds, vals := randSortedRuns(p, n, 40, rng.Int63())
				count := func(l int) int { return len(inds[l]) }

				rt := fresh()
				if _, _, err := SparseRowAllGather(rt, inds, vals); err != nil {
					t.Fatal(err)
				}
				check("SparseRowAllGather", rt, func(l int) float64 { return SparseRowAllGatherTime(rt, count, l) })
				rt = fresh()
				if err := ChargeSparseRowAllGather(rt, count); err != nil {
					t.Fatal(err)
				}
				check("ChargeSparseRowAllGather", rt, func(l int) float64 { return SparseRowAllGatherTime(rt, count, l) })

				bounds := locale.BlockBounds(n, p)
				seg := func(src, dst int) int {
					k := 0
					for _, i := range inds[src] {
						if i >= bounds[dst] && i < bounds[dst+1] {
							k++
						}
					}
					return k
				}
				rt = fresh()
				if _, _, err := ColMergeScatter[int64](rt, n, inds, vals, nil); err != nil {
					t.Fatal(err)
				}
				check("ColMergeScatter", rt, func(l int) float64 { return mergeScatterPrice(rt, seg, l) })
				rt = fresh()
				if err := ChargeColMergeScatter(rt, seg); err != nil {
					t.Fatal(err)
				}
				check("ChargeColMergeScatter", rt, func(l int) float64 { return mergeScatterPrice(rt, seg, l) })

				parts := make([][]int64, p)
				for l := range parts {
					parts[l] = make([]int64, rng.Intn(60))
				}
				rt = fresh()
				out, err := RowAllGather(rt, parts)
				if err != nil {
					t.Fatal(err)
				}
				check("RowAllGather", rt, func(l int) float64 { return RowAllGatherTime(rt, len(out[l])) })
				ReleaseRowGather(rt, out)

				rt = fresh()
				red, err := ColReduceScatter(rt, parts, semiring.PlusMonoid[int64]())
				if err != nil {
					t.Fatal(err)
				}
				check("ColReduceScatter", rt, func(l int) float64 { return ColReduceTime(rt, len(red[l])) })
				ReleaseColReduce(rt, red)

				// A team broadcast along a grid row, a grid column and the
				// whole machine, from a random member, of a panel or a band.
				g := fresh().G
				r, c := rng.Intn(g.Pr), rng.Intn(g.Pc)
				all := make([]int, p)
				for l := range all {
					all[l] = l
				}
				for _, team := range [][]int{g.RowLocales(r), g.ColLocales(c), all} {
					root := team[rng.Intn(len(team))]
					bytes := PanelBytes(rng.Intn(300))
					if rng.Intn(2) == 0 {
						bytes = DenseBytes(rng.Intn(300))
					}
					rt = fresh()
					if err := TeamBroadcast(rt, root, team, bytes, "price-test"); err != nil {
						t.Fatal(err)
					}
					member := map[int]bool{}
					for _, l := range team {
						member[l] = true
					}
					check("TeamBroadcast", rt, func(l int) float64 {
						if !member[l] {
							return 0
						}
						return TeamBroadcastTime(rt, root, l, len(team), bytes)
					})
				}
			}
		}
	}
}

// mergeScatterPrice is what ColMergeScatter charges dst for the scatter seg
// describes, fault-free: one message per nonempty remote segment, in source
// order, then the merge of every segment dst receives, its own included.
func mergeScatterPrice(rt *locale.Runtime, seg func(src, dst int) int, dst int) float64 {
	t, received := 0.0, 0
	for src := 0; src < rt.G.P; src++ {
		n := seg(src, dst)
		received += n
		if src != dst && n > 0 {
			t += SparseMsgTime(rt, n, rt.G.SameNode(src, dst))
		}
	}
	return t + SparseMergeTime(rt, received)
}
