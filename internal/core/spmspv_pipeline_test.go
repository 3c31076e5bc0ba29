package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/sparse"
)

// One differential table for the distributed SpMSpV: every entry point — the
// pipeline's plain, masked and fused instantiations, the bulk collectives and
// the dispatcher — runs on the same inputs over 1-, 4-, 6-, 7- (1×7) and
// 9-locale grids with the comm axis pinned fine and pinned bulk. Each output,
// read as (column, discovering row) pairs, must have the pattern of the
// sequential reference restricted to its mask, name a valid discoverer for
// every column, and — with one worker, where the first-wins scatter is
// deterministic — equal SpMSpVDist's output restricted the same way, bit for
// bit. Every call must hand back all its arena loans.

// pipelineVariant is one entry point under test. A masked variant keeps the
// entries at columns j with mask[j] == 0, an unmasked one all of them. run
// returns the product and its stats.
type pipelineVariant struct {
	name   string
	masked bool
	run    func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats)
}

// restrict keeps the entries of v that a variant keeps: those at columns the
// mask leaves zero when masked, all of them otherwise.
func restrict(v *sparse.Vec[int64], mask []int64, masked bool) *sparse.Vec[int64] {
	out := sparse.NewVec[int64](v.N)
	for k, j := range v.Ind {
		if !masked || mask[j] == 0 {
			out.Ind = append(out.Ind, j)
			out.Val = append(out.Val, v.Val[k])
		}
	}
	return out
}

func pipelineVariants() []pipelineVariant {
	bfsRound := func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
		n := a.NCols
		levels, parents := make([]int64, n), make([]int64, n)
		for i := range levels {
			levels[i], parents[i] = -1, -1
		}
		before := mask.ToDense().Data
		found, st := FusedBFSRound(rt, a, x, mask, 3, levels, parents)
		// x is now the next frontier; its columns carry the parents.
		next := x.ToVec()
		if found != next.NNZ() {
			t.Fatalf("FusedBFSRound reported %d survivors, frontier holds %d", found, next.NNZ())
		}
		out := sparse.NewVec[int64](n)
		after := mask.ToDense().Data
		for _, j := range next.Ind {
			if levels[j] != 3 || after[j] != 1 {
				t.Fatalf("survivor %d: level %d, mask %d; want 3, 1", j, levels[j], after[j])
			}
			out.Ind = append(out.Ind, j)
			out.Val = append(out.Val, parents[j])
		}
		for j := range after {
			if levels[j] != 3 && after[j] != before[j] {
				t.Fatalf("non-survivor %d: mask changed %d -> %d", j, before[j], after[j])
			}
		}
		return out, st
	}
	return []pipelineVariant{
		{"SpMSpVDist", false, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], _ *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			y, st := SpMSpVDist(rt, a, x)
			return y.ToVec(), st
		}},
		{"SpMSpVDistMasked", true, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			y, st := SpMSpVDistMasked(rt, a, x, mask)
			return y.ToVec(), st
		}},
		{"SpMSpVDistBulk", false, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], _ *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			y, st, err := SpMSpVDistBulk(rt, a, x)
			if err != nil {
				t.Fatal(err)
			}
			return y.ToVec(), st
		}},
		{"SpMSpVDistAuto", false, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], _ *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			y, st := SpMSpVDistAuto(rt, a, x)
			return y.ToVec(), st
		}},
		{"FusedBFSRound/keep-zero", true, bfsRound},
		{"FusedSpMSpVMaskedAssign", true, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			dst := dist.NewSpVec[int64](rt, a.NCols)
			st := FusedSpMSpVMaskedAssign(rt, a, x, mask, dst)
			return dst.ToVec(), st
		}},
		{"FusedSpMSpVFilterAssign", true, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			dst := dist.NewSpVec[int64](rt, a.NCols)
			st := FusedSpMSpVFilterAssign(rt, a, x, mask, func(_, m int64) bool { return m == 0 }, dst)
			return dst.ToVec(), st
		}},
	}
}

func TestSpMSpVPipelineDifferential(t *testing.T) {
	const n = 173
	a0 := sparse.ErdosRenyi[int64](n, 6, 71)
	x0 := sparse.RandomVec[int64](n, 25, 72)
	mask0 := sparse.RandomBoolDense[int64](n, 0.5, 73)
	ref := RefSpMSpVPattern(a0, x0)
	inX := map[int]bool{}
	for _, i := range x0.Ind {
		inX[i] = true
	}

	for _, p := range []int{1, 4, 6, 7, 9} {
		// SpMSpVDist on this grid is the bitwise baseline.
		base := newRT(t, p, 24)
		by, bst := SpMSpVDist(base, dist.MatFromCSR(base, a0), dist.SpVecFromVec(base, x0))
		baseline := by.ToVec()
		for _, comm := range []inspect.Comm{inspect.CommFine, inspect.CommBulk} {
			for _, v := range pipelineVariants() {
				rt := newRT(t, p, 24)
				rt.Insp = inspect.New(inspect.Strategy{Comm: comm})
				name := fmt.Sprintf("%dx%d/%s/%s", rt.G.Pr, rt.G.Pc, comm, v.name)
				t.Run(name, func(t *testing.T) {
					got, st := v.run(t, rt, dist.MatFromCSR(rt, a0), dist.SpVecFromVec(rt, x0), dist.DenseVecFromDense(rt, mask0.Clone()))
					if err := got.Validate(); err != nil {
						t.Fatal(err)
					}
					want := restrict(ref, mask0.Data, v.masked)
					if len(got.Ind) != len(want.Ind) {
						t.Fatalf("pattern size %d, want %d", len(got.Ind), len(want.Ind))
					}
					for k, j := range got.Ind {
						if j != want.Ind[k] {
							t.Fatalf("pattern differs at %d: column %d, want %d", k, j, want.Ind[k])
						}
						if rid := int(got.Val[k]); !inX[rid] {
							t.Fatalf("column %d: discoverer %d not in x", j, rid)
						} else if _, ok := a0.Get(rid, j); !ok {
							t.Fatalf("column %d: discoverer %d has no edge to it", j, rid)
						}
					}
					if !got.Equal(restrict(baseline, mask0.Data, v.masked)) {
						t.Fatal("entries differ from SpMSpVDist's at one worker")
					}
					if st.NnzOut != got.NNZ() || st.GatheredElems != bst.GatheredElems {
						t.Errorf("stats %+v: want NnzOut %d and GatheredElems %d", st, got.NNZ(), bst.GatheredElems)
					}
					if out := rt.Scratch.Outstanding(); out != 0 {
						t.Errorf("%d arena loans outstanding", out)
					}
				})
			}
		}
	}
}
