package core

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// This file provides local (single-locale) GraphBLAS primitives beyond the
// paper's four operations: the per-locale steps of the distributed ones
// (eWiseAdd/Mult on sparse pairs), the shared-memory SpMV and masked SpMSpV,
// and the local forms the distributed apply, row reduce and extract are
// tested against.

// EWiseMultSS multiplies two sparse vectors elementwise over the
// intersection of their patterns ("the indices of the output are the
// intersection of the indices of the inputs", combined with op).
func EWiseMultSS[T semiring.Number](x, y *sparse.Vec[T], op semiring.BinaryOp[T]) (*sparse.Vec[T], error) {
	if x.N != y.N {
		return nil, fmt.Errorf("core: EWiseMultSS: capacity mismatch %d vs %d", x.N, y.N)
	}
	out := sparse.NewVec[T](x.N)
	i, j := 0, 0
	for i < len(x.Ind) && j < len(y.Ind) {
		switch {
		case x.Ind[i] < y.Ind[j]:
			i++
		case x.Ind[i] > y.Ind[j]:
			j++
		default:
			out.Ind = append(out.Ind, x.Ind[i])
			out.Val = append(out.Val, op(x.Val[i], y.Val[j]))
			i++
			j++
		}
	}
	return out, nil
}

// EWiseAddSS adds two sparse vectors elementwise over the union of their
// patterns; positions present in only one input keep that input's value.
func EWiseAddSS[T semiring.Number](x, y *sparse.Vec[T], op semiring.BinaryOp[T]) (*sparse.Vec[T], error) {
	if x.N != y.N {
		return nil, fmt.Errorf("core: EWiseAddSS: capacity mismatch %d vs %d", x.N, y.N)
	}
	out := sparse.NewVec[T](x.N)
	i, j := 0, 0
	for i < len(x.Ind) || j < len(y.Ind) {
		switch {
		case j >= len(y.Ind) || (i < len(x.Ind) && x.Ind[i] < y.Ind[j]):
			out.Ind = append(out.Ind, x.Ind[i])
			out.Val = append(out.Val, x.Val[i])
			i++
		case i >= len(x.Ind) || y.Ind[j] < x.Ind[i]:
			out.Ind = append(out.Ind, y.Ind[j])
			out.Val = append(out.Val, y.Val[j])
			j++
		default:
			out.Ind = append(out.Ind, x.Ind[i])
			out.Val = append(out.Val, op(x.Val[i], y.Val[j]))
			i++
			j++
		}
	}
	return out, nil
}

// SpMV computes the dense-vector product y = xA over a semiring; x has
// length a.NRows, y length a.NCols, with absent contributions left at the
// additive identity. Entries of x equal to the identity are skipped (they
// cannot contribute, as the identity is annihilating in the supported
// semirings).
func SpMV[T semiring.Number](a *sparse.CSR[T], x []T, sr semiring.Semiring[T]) ([]T, error) {
	if len(x) != a.NRows {
		return nil, fmt.Errorf("core: SpMV: x has %d entries for %d rows", len(x), a.NRows)
	}
	rk := newRowKernel(sr)
	y := make([]T, a.NCols)
	rk.spmvBlock(a, x, sr.AddIdentity(), y, false)
	return y, nil
}
