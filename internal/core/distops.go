package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// This file implements the distributed primitives beyond the paper's four
// operations, built on the team collectives of internal/comm (the support the
// paper's discussion recommends adding): distributed reduce, distributed
// dense SpMV over the 2-D grid, distributed element-wise addition, and
// distributed matrix transpose.

// ReduceDist folds every stored value of a distributed sparse vector with a
// monoid: a local reduction per locale followed by a log2(P) reduction tree.
func ReduceDist[T semiring.Number](rt *locale.Runtime, v *dist.SpVec[T], m semiring.Monoid[T]) (T, error) {
	defer rt.Span("ReduceDist").End()
	partials := make([]T, rt.G.P)
	rt.Coforall(func(l int) {
		partials[l] = m.Reduce(v.Loc[l].Val)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "reduce-local",
			Items:        int64(v.Loc[l].NNZ()),
			CPUPerItem:   8,
			BytesPerItem: 8,
		})
	})
	return comm.Reduce(rt, 0, partials, m)
}

// SpMVDist computes the dense product y = xA over a semiring on the 2-D
// block-distributed matrix: each locale receives the x segment of its row
// band (a row-team all-gather), multiplies its local block, and the partial
// results are combined down each grid column with the additive monoid (a
// column-team reduce). x and y are block-distributed dense vectors of length
// NRows and NCols respectively. y is a fresh vector the caller owns; every
// buffer of the stages in between is on loan from the runtime's arena and
// back there when the call returns.
func SpMVDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.DenseVec[T], sr semiring.Semiring[T]) (*dist.DenseVec[T], error) {
	defer rt.Span("SpMVDist").End()
	if x.N != a.NRows {
		return nil, fmt.Errorf("core: SpMVDist: x has %d entries for %d rows", x.N, a.NRows)
	}
	y := dist.NewDenseVec[T](rt, a.NCols)
	err := spmvStages(rt, a, x, sr, "SpMV", y.Bounds, func(l, lo int, src []T) {
		copy(y.Loc[l][lo-y.Bounds[l]:], src)
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}

// spmvStages runs the distributed SpMV — row-team gather, local multiply,
// column-team reduce — and hands the reduced product to emit in the order of
// the block distribution bounds (see spmvAssemble). The stage buffers are
// arena loans shared read-only by the locales that would each hold a copy:
// one x band per row team, the dense partials, one reduced band per column
// team. All are returned before spmvStages is, on the error paths too; src
// is valid only during its emit call.
//
// A min or max monoid has no partials: every block multiplies straight into
// its column team's band, in grid-row order, which is the sequential row
// order, so the round's output is core.SpMV's bit for bit on any grid. Other
// monoids fold the per-block partials (comm.ColReduceScatter), whose order of
// float additions the grid shape decides. Both forms charge the same.
func spmvStages[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.DenseVec[T], sr semiring.Semiring[T], op string, bounds []int, emit func(l, lo int, src []T)) error {
	g := rt.G
	rt.S.CoforallSpawn()

	// Locale (r, c) needs x over the row band r: its row team's parts.
	bands, err := gatherSpMVInput(rt, x, op)
	if err != nil {
		return err
	}
	// The column-reduced slice of column band c is shared by the locales of
	// grid column c, and the block-distributed result takes each global
	// index from it.
	var reduced [][]T
	switch sr.Add.Kind() {
	case semiring.MonoidMin, semiring.MonoidMax:
		reduced = comm.LendColBands[T](rt, a.ColBands)
		spmvMultiply(rt, a, bands, sr, reduced, true)
		comm.ReleaseRowGather(rt, bands)
		err = comm.ColReduceInPlace(rt, reduced)
	default:
		partials, loan := lendPartials(rt, a)
		spmvMultiply(rt, a, bands, sr, partials, false)
		comm.ReleaseRowGather(rt, bands)
		reduced, err = comm.ColReduceScatter(rt, partials, sr.Add)
		sparse.PutSlice(rt.Scratch, loan)
	}
	if err != nil {
		return err
	}
	spmvAssemble(g, a.ColBands, bounds, reduced, emit)
	comm.ReleaseColReduce(rt, reduced)
	rt.S.Barrier()
	return nil
}

// lendPartials lends one dense partial per block of a, over the block's
// columns: consecutive pieces of one arena loan, which the caller returns.
func lendPartials[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T]) (partials [][]T, loan []T) {
	total := 0
	for _, blk := range a.Blocks {
		total += blk.NCols
	}
	loan = sparse.GetSlice[T](rt.Scratch, total)
	partials, rest := make([][]T, rt.G.P), loan
	for l, blk := range a.Blocks {
		partials[l], rest = rest[:blk.NCols:blk.NCols], rest[blk.NCols:]
	}
	return partials, loan
}

// spmvMultiply is the local-multiply stage of the distributed SpMV: every
// locale l multiplies its block by its x band into out[l], skipping rows
// whose x entry is the additive identity. Unshared, out[l] is cleared first;
// shared (inPlace, every locale of a grid column writing one band) the block
// on grid row 0 clears the band and the blocks below fold into it, in
// ascending locale order and so in grid-row order.
func spmvMultiply[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], bands [][]T, sr semiring.Semiring[T], out [][]T, inPlace bool) {
	rk := newRowKernel(sr)
	for l, blk := range a.Blocks {
		r, _ := rt.G.Coords(l)
		flops := rk.spmvBlock(blk, bands[l], sr.AddIdentity(), out[l], inPlace && r > 0)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmv-local",
			Items:        flops + int64(blk.NRows),
			CPUPerItem:   12,
			BytesPerItem: 20,
		})
	}
}

// spmvAssemble hands the column-reduced product over in the order of the
// block-distributed result (bounds): for every locale l, ascending, emit(l,
// lo, src) receives the reduced values src of global indices [lo,
// lo+len(src)) — the piece of l's block that falls in one column band, taken
// from that band's copy on grid row 0. Both distributions are block
// distributions of the same index space, so walking the bands replaces an
// owner lookup per element.
func spmvAssemble[T semiring.Number](g *locale.Grid, colBands, bounds []int, reduced [][]T, emit func(l, lo int, src []T)) {
	for l := 0; l < g.P; l++ {
		lo, hi := bounds[l], bounds[l+1]
		for c := 0; c < g.Pc && lo < hi; c++ {
			if end := min(hi, colBands[c+1]); end > lo {
				src := reduced[g.ID(0, c)]
				emit(l, lo, src[lo-colBands[c]:end-colBands[c]])
				lo = end
			}
		}
	}
}

// EWiseAddDist adds two identically distributed sparse vectors elementwise
// over the union of their patterns; a purely local merge per locale.
func EWiseAddDist[T semiring.Number](rt *locale.Runtime, x, y *dist.SpVec[T], op semiring.BinaryOp[T]) (*dist.SpVec[T], error) {
	defer rt.Span("EWiseAddDist").End()
	if !x.SameDistribution(y) {
		return nil, fmt.Errorf("core: EWiseAddDist: operands have different distributions")
	}
	z := dist.NewSpVec[T](rt, x.N)
	var firstErr error
	rt.Coforall(func(l int) {
		merged, err := EWiseAddSS(x.Loc[l], y.Loc[l], op)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		z.Loc[l] = merged
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "ewiseadd-local",
			Items:        int64(x.Loc[l].NNZ() + y.Loc[l].NNZ()),
			CPUPerItem:   20,
			BytesPerItem: 32,
		})
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return z, nil
}

// EWiseMultDistSS intersects two identically distributed sparse vectors
// elementwise; a purely local merge per locale.
func EWiseMultDistSS[T semiring.Number](rt *locale.Runtime, x, y *dist.SpVec[T], op semiring.BinaryOp[T]) (*dist.SpVec[T], error) {
	defer rt.Span("EWiseMultDistSS").End()
	if !x.SameDistribution(y) {
		return nil, fmt.Errorf("core: EWiseMultDistSS: operands have different distributions")
	}
	z := dist.NewSpVec[T](rt, x.N)
	var firstErr error
	rt.Coforall(func(l int) {
		merged, err := EWiseMultSS(x.Loc[l], y.Loc[l], op)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		z.Loc[l] = merged
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "ewisemultss-local",
			Items:        int64(x.Loc[l].NNZ() + y.Loc[l].NNZ()),
			CPUPerItem:   20,
			BytesPerItem: 32,
		})
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return z, nil
}

// TransposeDist returns Aᵀ, block-distributed over the transposed grid
// (Pc×Pr): block (r, c) is transposed locally and shipped to grid position
// (c, r) — one bulk transfer per off-diagonal block. Because the transposed
// matrix lives on a Pc×Pr grid, a matching runtime over that grid is
// returned alongside it (for square grids it has the same shape).
func TransposeDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T]) (*dist.Mat[T], *locale.Runtime, error) {
	defer rt.Span("TransposeDist").End()
	g := rt.G
	tg, err := locale.NewGridShape(g.Pc, g.Pr)
	if err != nil {
		return nil, nil, err
	}
	trt := locale.NewWithGrid(rt.S.M, tg, rt.Threads)
	trt.RealWorkers = rt.RealWorkers
	out := &dist.Mat[T]{
		G:        tg,
		NRows:    a.NCols,
		NCols:    a.NRows,
		RowBands: append([]int(nil), a.ColBands...),
		ColBands: append([]int(nil), a.RowBands...),
		Blocks:   make([]*sparse.CSR[T], tg.P),
	}
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		tb := a.Blocks[l].Transpose()
		dst := tg.ID(c, r)
		out.Blocks[dst] = tb
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "transpose-local",
			Items:        int64(tb.NNZ()),
			CPUPerItem:   15,
			BytesPerItem: 24,
		})
		if dst != l {
			rt.S.Bulk(l, int64(tb.NNZ())*16, g.SameNode(l, dst))
		}
	}
	rt.S.Barrier()
	return out, trt, nil
}
