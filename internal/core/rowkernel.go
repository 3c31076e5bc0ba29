package core

import (
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// rowKernel is a semiring resolved once per kernel call for the row loops:
// for a built-in semiring (semiring.Kind) the loops below run its arithmetic
// inline, for any other — a user's struct literal, a built-in with a
// reassigned operator, a kind a loop has no case for — through the
// function-valued operators.
//
// The inlined arithmetic is bit-for-bit the built-in operator. Two rules keep
// it so: a product is written T(x*v), because an explicit conversion rounds
// and so forbids fusing it with the following add into an FMA on
// architectures that have one (the operator's return rounds the same way);
// and min/max keep the operators' exact comparison, `a < b ? a : b`, so NaN
// and -0 resolve identically. inf is MaxValue[T](), which the saturating
// multiplies otherwise recompute per product.
type rowKernel[T semiring.Number] struct {
	kind     semiring.Kind
	add, mul semiring.BinaryOp[T]
	inf      T
}

func newRowKernel[T semiring.Number](sr semiring.Semiring[T]) rowKernel[T] {
	return rowKernel[T]{kind: sr.Kind(), add: sr.Add.Op, mul: sr.Mul, inf: semiring.MaxValue[T]()}
}

// spmvBlock computes the dense product y = xA of one CSR block: y starts at
// the additive identity id, and rows whose x entry is id are skipped (they
// cannot contribute). It also returns the number of matrix entries visited.
func (rk *rowKernel[T]) spmvBlock(a *sparse.CSR[T], x []T, id T) (y []T, visited int64) {
	y = make([]T, a.NCols)
	for j := range y {
		y[j] = id
	}
	for i, xv := range x[:a.NRows] {
		if xv == id {
			continue
		}
		cols, vals := a.Row(i)
		visited += int64(len(cols))
		rk.spmvRow(y, cols, vals, xv)
	}
	return y, visited
}

// spmvRow accumulates one matrix row into a dense partial result:
// part[cols[k]] ⊕= xv ⊗ vals[k].
func (rk *rowKernel[T]) spmvRow(part []T, cols []int, vals []T, xv T) {
	vals = vals[:len(cols)]
	inf := rk.inf
	switch rk.kind {
	case semiring.KindPlusTimes:
		for k, j := range cols {
			part[j] += T(xv * vals[k])
		}
	case semiring.KindMinPlus:
		for k, j := range cols {
			p := T(xv + vals[k])
			if xv == inf || vals[k] == inf {
				p = inf
			}
			if !(part[j] < p) {
				part[j] = p
			}
		}
	case semiring.KindMinSecond:
		for k, j := range cols {
			p := vals[k]
			if xv == inf {
				p = inf
			}
			if !(part[j] < p) {
				part[j] = p
			}
		}
	case semiring.KindMinFirst:
		for k, j := range cols {
			p := xv
			if vals[k] == inf {
				p = inf
			}
			if !(part[j] < p) {
				part[j] = p
			}
		}
	case semiring.KindMaxPlus:
		for k, j := range cols {
			if p := T(xv + vals[k]); !(part[j] > p) {
				part[j] = p
			}
		}
	case semiring.KindLOrLAnd:
		for k, j := range cols {
			if part[j] != 0 || (xv != 0 && vals[k] != 0) {
				part[j] = 1
			} else {
				part[j] = 0
			}
		}
	default:
		add, mul := rk.add, rk.mul
		for k, j := range cols {
			part[j] = add(part[j], mul(xv, vals[k]))
		}
	}
}

// spaRow accumulates one matrix row into a first-touch dense accumulator
// (sparse.BucketSPA's scratch): the first product to reach a position is
// stored as is, later ones are folded in with ⊕. It returns how many
// positions the row claimed.
func (rk *rowKernel[T]) spaRow(val []T, there []bool, cols []int, vals []T, xv T) int {
	vals = vals[:len(cols)]
	inf := rk.inf
	claimed := 0
	switch rk.kind {
	case semiring.KindPlusTimes:
		for k, j := range cols {
			p := T(xv * vals[k])
			if !there[j] {
				there[j] = true
				val[j] = p
				claimed++
			} else {
				val[j] += p
			}
		}
	case semiring.KindMinPlus:
		for k, j := range cols {
			p := T(xv + vals[k])
			if xv == inf || vals[k] == inf {
				p = inf
			}
			claimed += minInto(val, there, j, p)
		}
	case semiring.KindMinSecond:
		for k, j := range cols {
			p := vals[k]
			if xv == inf {
				p = inf
			}
			claimed += minInto(val, there, j, p)
		}
	case semiring.KindMinFirst:
		for k, j := range cols {
			p := xv
			if vals[k] == inf {
				p = inf
			}
			claimed += minInto(val, there, j, p)
		}
	default:
		add, mul := rk.add, rk.mul
		for k, j := range cols {
			p := mul(xv, vals[k])
			if !there[j] {
				there[j] = true
				val[j] = p
				claimed++
			} else {
				val[j] = add(val[j], p)
			}
		}
	}
	return claimed
}

// minInto is spaRow's accumulate step over the min monoid; it returns 1 when
// p claimed position j.
func minInto[T semiring.Number](val []T, there []bool, j int, p T) int {
	if !there[j] {
		there[j] = true
		val[j] = p
		return 1
	}
	if !(val[j] < p) {
		val[j] = p
	}
	return 0
}
