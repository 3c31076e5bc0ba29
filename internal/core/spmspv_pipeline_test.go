package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// One differential table for the distributed SpMSpV: every entry point — the
// pipeline's plain, masked and fused instantiations, the bulk collectives and
// the dispatcher — runs on the same inputs over 1-, 4-, 6-, 7- (1×7) and
// 9-locale grids, and on an input whose every column is reached from every
// row band over 2×2, 3×3, 4×4, 1×4 and 4×1 grids, with the comm axis pinned
// fine and pinned bulk. Each output, read as (column, discovering row) pairs,
// must have the pattern of the sequential reference restricted to its mask
// and — with one worker, where the first-wins scatter is deterministic — name
// as the discoverer of every column the smallest row of x with an edge to it:
// first-wins in x order within a block, then in locale order across the
// blocks of a column band, whose row bands ascend. Every call must hand back
// all its arena loans.

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
		found, st, err := FusedBFSRound(rt, a, x, mask, 3, levels, parents)
		if err != nil {
			t.Fatal(err)
		}
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
			y, st, err := SpMSpVDistMasked(rt, a, x, mask)
			if err != nil {
				t.Fatal(err)
			}
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
			y, st, err := SpMSpVDistAuto(rt, a, x)
			if err != nil {
				t.Fatal(err)
			}
			return y.ToVec(), st
		}},
		{"FusedBFSRound/keep-zero", true, bfsRound},
		{"FusedSpMSpVMaskedAssign", true, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			dst := dist.NewSpVec[int64](rt, a.NCols)
			st, err := FusedSpMSpVMaskedAssign(rt, a, x, mask, dst)
			if err != nil {
				t.Fatal(err)
			}
			return dst.ToVec(), st
		}},
		{"FusedSpMSpVFilterAssign", true, func(t *testing.T, rt *locale.Runtime, a *dist.Mat[int64], x *dist.SpVec[int64], mask *dist.DenseVec[int64]) (*sparse.Vec[int64], DistStats) {
			dst := dist.NewSpVec[int64](rt, a.NCols)
			st, err := FusedSpMSpVFilterAssign(rt, a, x, mask, func(_, m int64) bool { return m == 0 }, dst)
			if err != nil {
				t.Fatal(err)
			}
			return dst.ToVec(), st
		}},
	}
}

// firstDiscoverer is the sequential first-wins oracle: for every column j
// reached from x, the smallest row i of x with a[i, j] stored.
func firstDiscoverer(a *sparse.CSR[int64], x *sparse.Vec[int64]) map[int]int64 {
	first := map[int]int64{}
	for _, i := range x.Ind { // ascending, so the first claim is the smallest row
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if _, ok := first[j]; !ok {
				first[j] = int64(i)
			}
		}
	}
	return first
}

// everyBandInput is an n×n pattern where a[i, j] is stored iff i ≡ j (mod 4),
// and x holds the rows i ≢ 1 (mod 3): any four consecutive rows hold one row
// per residue mod 4, and the three rows ≡ j (mod 4) of twelve consecutive ones
// cover every residue mod 3, so with n = 48 every row band of a 1-, 2-, 3- or
// 4-row grid reaches every column.
func everyBandInput(n int) (*sparse.CSR[int64], *sparse.Vec[int64]) {
	coo := sparse.NewCOO[int64](n, n)
	x := sparse.NewVec[int64](n)
	for i := 0; i < n; i++ {
		for j := i % 4; j < n; j += 4 {
			coo.Append(i, j, 1)
		}
		if i%3 != 1 {
			x.Ind = append(x.Ind, i)
			x.Val = append(x.Val, 1)
		}
	}
	a, err := coo.ToCSR(nil)
	if err != nil {
		panic(err)
	}
	return a, x
}

// gridRT builds a runtime on a pr×pc grid (locale.New picks only the
// squarest shape for a locale count).
func gridRT(t *testing.T, pr, pc int) *locale.Runtime {
	t.Helper()
	g, err := locale.NewGridShape(pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	return locale.NewWithGrid(machine.Edison(), g, 24)
}

func TestSpMSpVPipelineDifferential(t *testing.T) {
	const n = 173
	er := sparse.ErdosRenyi[int64](n, 6, 71)
	erX := sparse.RandomVec[int64](n, 25, 72)
	var erGrids [][2]int
	for _, p := range []int{1, 4, 6, 7, 9} {
		g, err := locale.NewGrid(p)
		if err != nil {
			t.Fatal(err)
		}
		erGrids = append(erGrids, [2]int{g.Pr, g.Pc})
	}
	band, bandX := everyBandInput(48)
	for _, in := range []struct {
		name  string
		a0    *sparse.CSR[int64]
		x0    *sparse.Vec[int64]
		grids [][2]int
	}{
		{"", er, erX, erGrids},
		{"every-band/", band, bandX, [][2]int{{2, 2}, {3, 3}, {4, 4}, {1, 4}, {4, 1}}},
	} {
		a0, x0 := in.a0, in.x0
		n := a0.NCols
		mask0 := sparse.RandomBoolDense[int64](n, 0.5, 73)
		ref := RefSpMSpVPattern(a0, x0)
		first := firstDiscoverer(a0, x0)
		for _, shape := range in.grids {
			for _, comm := range []inspect.Comm{inspect.CommFine, inspect.CommBulk} {
				for _, v := range pipelineVariants() {
					rt := gridRT(t, shape[0], shape[1])
					rt.Insp = inspect.New(inspect.Strategy{Comm: comm})
					// Locale (r, c) gathers row band r of x.
					rowBands := locale.BlockBounds(a0.NRows, rt.G.Pr)
					var gathered int64
					for l := 0; l < rt.G.P; l++ {
						r, _ := rt.G.Coords(l)
						lo, hi := rowBands[r], rowBands[r+1]
						for _, i := range x0.Ind {
							if lo <= i && i < hi {
								gathered++
							}
						}
					}
					name := fmt.Sprintf("%s%dx%d/%s/%s", in.name, rt.G.Pr, rt.G.Pc, comm, v.name)
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
							if got.Val[k] != first[j] {
								t.Fatalf("column %d: discoverer %d, want %d (the smallest row of x with an edge to it)", j, got.Val[k], first[j])
							}
						}
						if st.NnzOut != got.NNZ() || st.GatheredElems != gathered {
							t.Errorf("stats %+v: want NnzOut %d and GatheredElems %d", st, got.NNZ(), gathered)
						}
						if out := rt.Scratch.Outstanding(); out != 0 {
							t.Errorf("%d arena loans outstanding", out)
						}
					})
				}
			}
		}
	}
}
