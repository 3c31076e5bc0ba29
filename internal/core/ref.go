package core

import (
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// This file holds deliberately simple sequential reference implementations of
// every operation, used by the test suite as ground truth. None of them
// charge the performance model.

// RefEWiseMultSD returns the entries of x for which pred(x[i], y[i]) holds.
func RefEWiseMultSD[T semiring.Number](x *sparse.Vec[T], y *sparse.Dense[T], pred semiring.Pred[T]) *sparse.Vec[T] {
	out := sparse.NewVec[T](x.N)
	for k, i := range x.Ind {
		if pred(x.Val[k], y.Data[i]) {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, x.Val[k])
		}
	}
	return out
}

// RefSpMSpVPattern computes the pattern-and-discoverer product of the paper's
// SpMSpV: for every column j reachable from a row selected by x, y[j] is the
// SMALLEST discovering row id (a canonical deterministic choice among the
// valid discoverers).
func RefSpMSpVPattern[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T]) *sparse.Vec[int64] {
	val := make(map[int]int64)
	for _, rid := range x.Ind {
		if rid < 0 || rid >= a.NRows {
			continue
		}
		cols, _ := a.Row(rid)
		for _, j := range cols {
			if old, ok := val[j]; !ok || int64(rid) < old {
				val[j] = int64(rid)
			}
		}
	}
	out := sparse.NewVec[int64](a.NCols)
	for j := range val {
		out.Ind = append(out.Ind, j)
	}
	sparse.RadixSortInts(out.Ind)
	out.Val = make([]int64, len(out.Ind))
	for k, j := range out.Ind {
		out.Val[k] = val[j]
	}
	return out
}

// RefSpMSpVSemiring computes y[j] = ⊕_{i in x} x[i] ⊗ A[i,j] sequentially in
// increasing row order.
func RefSpMSpVSemiring[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], sr semiring.Semiring[T]) *sparse.Vec[T] {
	acc := make(map[int]T)
	for k, rid := range x.Ind {
		if rid < 0 || rid >= a.NRows {
			continue
		}
		cols, vals := a.Row(rid)
		for c, j := range cols {
			prod := sr.Mul(x.Val[k], vals[c])
			if old, ok := acc[j]; ok {
				acc[j] = sr.Add.Op(old, prod)
			} else {
				acc[j] = prod
			}
		}
	}
	out := sparse.NewVec[T](a.NCols)
	for j := range acc {
		out.Ind = append(out.Ind, j)
	}
	sparse.RadixSortInts(out.Ind)
	out.Val = make([]T, len(out.Ind))
	for k, j := range out.Ind {
		out.Val[k] = acc[j]
	}
	return out
}

// RefSpMV computes the dense product y = xA over a semiring, where x and y
// are dense (identity-padded) vectors.
func RefSpMV[T semiring.Number](a *sparse.CSR[T], x []T, sr semiring.Semiring[T]) []T {
	y := make([]T, a.NCols)
	for j := range y {
		y[j] = sr.AddIdentity()
	}
	id := sr.AddIdentity()
	for i := 0; i < a.NRows; i++ {
		if x[i] == id {
			continue
		}
		cols, vals := a.Row(i)
		for c, j := range cols {
			y[j] = sr.Add.Op(y[j], sr.Mul(x[i], vals[c]))
		}
	}
	return y
}

// RefSpGEMM computes C = A·B over a semiring with a quadratic-time map-based
// method.
func RefSpGEMM[T semiring.Number](a, b *sparse.CSR[T], sr semiring.Semiring[T]) *sparse.CSR[T] {
	c := sparse.NewCSR[T](a.NRows, b.NCols)
	row := make(map[int]T)
	for i := 0; i < a.NRows; i++ {
		for k := range row {
			delete(row, k)
		}
		aCols, aVals := a.Row(i)
		for t, k := range aCols {
			bCols, bVals := b.Row(k)
			for u, j := range bCols {
				prod := sr.Mul(aVals[t], bVals[u])
				if old, ok := row[j]; ok {
					row[j] = sr.Add.Op(old, prod)
				} else {
					row[j] = prod
				}
			}
		}
		cols := make([]int, 0, len(row))
		for j := range row {
			cols = append(cols, j)
		}
		sparse.RadixSortInts(cols)
		for _, j := range cols {
			c.ColIdx = append(c.ColIdx, j)
			c.Val = append(c.Val, row[j])
		}
		c.RowPtr[i+1] = len(c.ColIdx)
	}
	return c
}
