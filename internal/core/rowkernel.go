package core

import (
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// rowKernel is a semiring resolved once per kernel call for the row loops:
// for a built-in semiring (semiring.Kind) the loops below run its arithmetic
// inline, for any other — a user's struct literal, a built-in with a
// reassigned operator, a min kind whose identity is not MaxValue, a kind a
// loop has no case for — through the function-valued operators.
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
	inf := semiring.MaxValue[T]()
	kind := sr.Kind()
	switch kind {
	case semiring.KindMinPlus, semiring.KindMinSecond, semiring.KindMinFirst:
		// The min loops skip a row whose x is the identity and rely on that
		// identity being inf; a reassigned one runs the generic loop.
		if sr.AddIdentity() != inf {
			kind = semiring.KindGeneric
		}
	}
	return rowKernel[T]{kind: kind, add: sr.Add.Op, mul: sr.Mul, inf: inf}
}

// spmvBlock computes the dense product xA of one CSR block into y (length
// a.NCols), row by row in ascending order. Unless fold is set, y starts at
// the additive identity id; with fold, every product p is folded into y as
// it stands, y[j] ⊕ p, so the blocks of one grid column multiplied into one
// y in grid-row order give the sequential product. Empty rows and rows whose
// x entry is id are skipped. It returns the number of matrix entries
// visited. Every kind walks RowPtr itself: a 2-D block is hypersparse, and a
// skipped row costs a compare or two. Plus-times carries a row's start over
// and tests emptiness before x; the other kinds test x first, as their x is
// a changed set. The kind is resolved once per block. A min kind's identity
// is inf, so skipping xv == id also skips the rows whose every product
// would saturate to inf.
func (rk *rowKernel[T]) spmvBlock(a *sparse.CSR[T], x []T, id T, y []T, fold bool) (visited int64) {
	if !fold {
		fill(y, id)
	}
	x = x[:a.NRows]
	rp := a.RowPtr[:len(x)+1]
	cols := a.ColIdx
	vals := a.Val[:len(cols)]
	inf := rk.inf
	switch rk.kind {
	case semiring.KindPlusTimes:
		lo := rp[0]
		for i, xv := range x {
			hi := rp[i+1]
			if lo == hi || xv == id {
				lo = hi
				continue
			}
			for k := lo; k < hi; k++ {
				y[cols[k]] += T(xv * vals[k])
			}
			visited += int64(hi - lo)
			lo = hi
		}
	case semiring.KindMinPlus:
		for i, xv := range x {
			if xv == id {
				continue
			}
			lo, hi := rp[i], rp[i+1]
			visited += int64(hi - lo)
			for k := lo; k < hi; k++ {
				j, v := cols[k], vals[k]
				p := T(xv + v)
				if v == inf {
					p = inf
				}
				if !(y[j] < p) {
					y[j] = p
				}
			}
		}
	case semiring.KindMinSecond:
		for i, xv := range x {
			if xv == id {
				continue
			}
			lo, hi := rp[i], rp[i+1]
			visited += int64(hi - lo)
			for k := lo; k < hi; k++ {
				j := cols[k]
				if p := vals[k]; !(y[j] < p) {
					y[j] = p
				}
			}
		}
	case semiring.KindMinFirst:
		for i, xv := range x {
			if xv == id {
				continue
			}
			lo, hi := rp[i], rp[i+1]
			visited += int64(hi - lo)
			for k := lo; k < hi; k++ {
				j := cols[k]
				p := xv
				if vals[k] == inf {
					p = inf
				}
				if !(y[j] < p) {
					y[j] = p
				}
			}
		}
	case semiring.KindMaxPlus:
		for i, xv := range x {
			if xv == id {
				continue
			}
			lo, hi := rp[i], rp[i+1]
			visited += int64(hi - lo)
			for k := lo; k < hi; k++ {
				j := cols[k]
				if p := T(xv + vals[k]); !(y[j] > p) {
					y[j] = p
				}
			}
		}
	case semiring.KindLOrLAnd:
		for i, xv := range x {
			if xv == id {
				continue
			}
			lo, hi := rp[i], rp[i+1]
			visited += int64(hi - lo)
			for k := lo; k < hi; k++ {
				j := cols[k]
				if y[j] != 0 || (xv != 0 && vals[k] != 0) {
					y[j] = 1
				} else {
					y[j] = 0
				}
			}
		}
	default:
		add, mul := rk.add, rk.mul
		for i, xv := range x {
			if xv == id {
				continue
			}
			lo, hi := rp[i], rp[i+1]
			visited += int64(hi - lo)
			for k := lo; k < hi; k++ {
				j := cols[k]
				y[j] = add(y[j], mul(xv, vals[k]))
			}
		}
	}
	return visited
}

// fill sets every element of y to v: one store, then copies of doubling
// length. The copies run as memmove, whose speed does not depend on where a
// caller's code happens to fall relative to the decoder's 32-byte windows,
// as a one-store loop's does.
func fill[T semiring.Number](y []T, v T) {
	if len(y) == 0 {
		return
	}
	y[0] = v
	for i := 1; i < len(y); i *= 2 {
		copy(y[i:], y[:i])
	}
}

// spaRow accumulates one matrix row into a first-touch dense accumulator
// (sparse.BucketSPA's scratch, sparse.SPA): the first product to reach a
// position is stored as is, later ones are folded in with ⊕. It returns how
// many positions the row claimed; a non-nil record has them appended to
// *record (itself possibly a nil slice) in the order they were claimed.
func (rk *rowKernel[T]) spaRow(val []T, there []bool, cols []int, vals []T, xv T, record *[]int) int {
	vals = vals[:len(cols)]
	inf := rk.inf
	var nz []int
	if record != nil {
		nz = *record
	}
	claimed := 0
	switch rk.kind {
	case semiring.KindPlusTimes:
		for k, j := range cols {
			p := T(xv * vals[k])
			if !there[j] {
				there[j] = true
				val[j] = p
				claimed++
				if record != nil {
					nz = append(nz, j)
				}
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
			c := minInto(val, there, j, p)
			claimed += c
			if record != nil && c == 1 {
				nz = append(nz, j)
			}
		}
	case semiring.KindMinSecond:
		for k, j := range cols {
			p := vals[k]
			if xv == inf {
				p = inf
			}
			c := minInto(val, there, j, p)
			claimed += c
			if record != nil && c == 1 {
				nz = append(nz, j)
			}
		}
	case semiring.KindMinFirst:
		for k, j := range cols {
			p := xv
			if vals[k] == inf {
				p = inf
			}
			c := minInto(val, there, j, p)
			claimed += c
			if record != nil && c == 1 {
				nz = append(nz, j)
			}
		}
	case semiring.KindLOrLAnd:
		for k, j := range cols {
			var p T
			if xv != 0 && vals[k] != 0 {
				p = 1
			}
			if !there[j] {
				there[j] = true
				val[j] = p
				claimed++
				if record != nil {
					nz = append(nz, j)
				}
			} else if val[j] != 0 || p != 0 {
				val[j] = 1
			} else {
				val[j] = 0
			}
		}
	default:
		add, mul := rk.add, rk.mul
		for k, j := range cols {
			p := mul(xv, vals[k])
			if !there[j] {
				there[j] = true
				val[j] = p
				claimed++
				if record != nil {
					nz = append(nz, j)
				}
			} else {
				val[j] = add(val[j], p)
			}
		}
	}
	if record != nil {
		*record = nz
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

// product returns x ⊗ v for a built-in kind (any but KindGeneric: the caller
// tests for that, because an operator call in here would put product and sum
// past the inliner's budget, and they exist to be inlined per flop).
func (rk *rowKernel[T]) product(x, v T) T {
	switch rk.kind {
	case semiring.KindPlusTimes:
		return T(x * v)
	case semiring.KindMaxPlus:
		return T(x + v)
	case semiring.KindLOrLAnd:
		if x != 0 && v != 0 {
			return 1
		}
		return 0
	}
	if x == rk.inf || v == rk.inf {
		return rk.inf
	}
	switch rk.kind {
	case semiring.KindMinPlus:
		return T(x + v)
	case semiring.KindMinSecond:
		return v
	}
	return x
}

// sum returns a ⊕ p for a built-in kind (any but KindGeneric).
func (rk *rowKernel[T]) sum(a, p T) T {
	switch rk.kind {
	case semiring.KindPlusTimes:
		return a + p
	case semiring.KindMaxPlus:
		if a > p {
			return a
		}
		return p
	case semiring.KindLOrLAnd:
		if a != 0 || p != 0 {
			return 1
		}
		return 0
	}
	if a < p {
		return a
	}
	return p
}
