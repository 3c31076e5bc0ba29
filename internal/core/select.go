package core

import (
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// SelectPred decides whether a stored entry (index, value) survives a Select.
type SelectPred[T any] func(index int, value T) bool

// SelectVec returns the entries of x satisfying pred — GraphBLAS's
// GrB_select restricted to vectors. O(nnz), no communication.
func SelectVec[T semiring.Number](x *sparse.Vec[T], pred SelectPred[T]) *sparse.Vec[T] {
	out := sparse.NewVec[T](x.N)
	for k, i := range x.Ind {
		if pred(i, x.Val[k]) {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, x.Val[k])
		}
	}
	return out
}

// SelectDist filters a distributed sparse vector in place per locale; no
// communication (the distribution is index-based and unchanged).
func SelectDist[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], pred SelectPred[T]) *dist.SpVec[T] {
	defer rt.Span("SelectDist").End()
	out := dist.NewSpVec[T](rt, x.N)
	rt.Coforall(func(l int) {
		out.Loc[l] = SelectVec(x.Loc[l], pred)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "select-local",
			Items:        int64(x.Loc[l].NNZ()),
			CPUPerItem:   15,
			BytesPerItem: 16,
		})
	})
	return out
}

// ReduceRowsDist reduces each row of a distributed matrix with a monoid,
// producing a distributed sparse vector over the row index space: each
// locale reduces its block rows, and grid-row teams combine their partials
// (one bulk exchange per team member).
func ReduceRowsDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], m semiring.Monoid[T]) *dist.SpVec[T] {
	defer rt.Span("ReduceRowsDist").End()
	g := rt.G
	rt.S.CoforallSpawn()
	n := a.NRows
	// Per-locale partial row reductions (block-local rows).
	partial := make([][]T, g.P)
	nonempty := make([][]bool, g.P)
	for l := 0; l < g.P; l++ {
		blk := a.Blocks[l]
		vals := make([]T, blk.NRows)
		any := make([]bool, blk.NRows)
		for i := 0; i < blk.NRows; i++ {
			_, rowVals := blk.Row(i)
			if len(rowVals) == 0 {
				continue
			}
			vals[i] = m.Reduce(rowVals)
			any[i] = true
		}
		partial[l] = vals
		nonempty[l] = any
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "rowreduce-local",
			Items:        int64(blk.NNZ() + blk.NRows),
			CPUPerItem:   8,
			BytesPerItem: 12,
		})
	}
	// Combine across each grid row's team.
	out := dist.NewSpVec[T](rt, n)
	for r := 0; r < g.Pr; r++ {
		team := g.RowLocales(r)
		rows := a.RowBands[r+1] - a.RowBands[r]
		acc := make([]T, rows)
		any := make([]bool, rows)
		for _, l := range team {
			for i := 0; i < rows; i++ {
				if !nonempty[l][i] {
					continue
				}
				if any[i] {
					acc[i] = m.Op(acc[i], partial[l][i])
				} else {
					acc[i] = partial[l][i]
					any[i] = true
				}
			}
			if l != team[0] {
				rt.S.Bulk(team[0], int64(rows)*9, false)
			}
		}
		// Scatter the reduced row band into the output's owner locales.
		for i := 0; i < rows; i++ {
			if !any[i] {
				continue
			}
			gidx := a.RowBands[r] + i
			owner := out.Owner(gidx)
			lv := out.Loc[owner]
			lv.Ind = append(lv.Ind, gidx)
			lv.Val = append(lv.Val, acc[i])
		}
	}
	rt.S.Barrier()
	return out
}
