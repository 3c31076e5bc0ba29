package sparse

import (
	"fmt"
	"sort"

	"repro/internal/semiring"
)

// CSC is a Compressed Sparse Columns matrix — the column-major twin of CSR.
// The paper's library uses CSR exclusively (it is what Chapel supports), but
// column-major access is the natural layout for pull-style traversals
// (direction-optimizing BFS) and for the column-wise SpMSpV formulations of
// the literature the paper cites, so the library provides it as an extension
// with O(nnz) conversions both ways.
type CSC[T semiring.Number] struct {
	NRows  int
	NCols  int
	ColPtr []int
	RowIdx []int
	Val    []T
}

// NewCSC returns an empty NRows×NCols matrix.
func NewCSC[T semiring.Number](nrows, ncols int) *CSC[T] {
	return &CSC[T]{NRows: nrows, NCols: ncols, ColPtr: make([]int, ncols+1)}
}

// NNZ returns the number of stored elements.
func (a *CSC[T]) NNZ() int { return len(a.RowIdx) }

// Col returns the row-id and value slices of column j (aliases, not copies).
func (a *CSC[T]) Col(j int) (rows []int, vals []T) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowIdx[lo:hi], a.Val[lo:hi]
}

// Get returns the value at (i, j) by binary search within the column.
func (a *CSC[T]) Get(i, j int) (T, bool) {
	rows, vals := a.Col(j)
	k := sort.SearchInts(rows, i)
	if k < len(rows) && rows[k] == i {
		return vals[k], true
	}
	var zero T
	return zero, false
}

// Validate checks the CSC representation invariants.
func (a *CSC[T]) Validate() error {
	if len(a.ColPtr) != a.NCols+1 {
		return fmt.Errorf("sparse: csc: len(ColPtr)=%d, want %d", len(a.ColPtr), a.NCols+1)
	}
	if len(a.RowIdx) != len(a.Val) {
		return fmt.Errorf("sparse: csc: %d row ids but %d values", len(a.RowIdx), len(a.Val))
	}
	if a.ColPtr[0] != 0 || a.ColPtr[a.NCols] != len(a.RowIdx) {
		return fmt.Errorf("sparse: csc: ColPtr endpoints wrong")
	}
	for j := 0; j < a.NCols; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: csc: ColPtr not monotone at column %d", j)
		}
		rows, _ := a.Col(j)
		for k, i := range rows {
			if i < 0 || i >= a.NRows {
				return fmt.Errorf("sparse: csc: column %d: row %d out of range", j, i)
			}
			if k > 0 && rows[k-1] >= i {
				return fmt.Errorf("sparse: csc: column %d: rows not strictly increasing", j)
			}
		}
	}
	return nil
}

// ToCSC converts a CSR matrix to CSC in O(nnz) with a counting pass.
func (a *CSR[T]) ToCSC() *CSC[T] {
	c := NewCSC[T](a.NRows, a.NCols)
	c.RowIdx = make([]int, a.NNZ())
	c.Val = make([]T, a.NNZ())
	for _, j := range a.ColIdx {
		c.ColPtr[j+1]++
	}
	for j := 0; j < c.NCols; j++ {
		c.ColPtr[j+1] += c.ColPtr[j]
	}
	next := append([]int(nil), c.ColPtr[:c.NCols]...)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			p := next[j]
			next[j]++
			c.RowIdx[p] = i
			c.Val[p] = vals[k]
		}
	}
	return c
}

// ToCSR converts a CSC matrix back to CSR in O(nnz).
func (a *CSC[T]) ToCSR() *CSR[T] {
	r := NewCSR[T](a.NRows, a.NCols)
	r.ColIdx = make([]int, a.NNZ())
	r.Val = make([]T, a.NNZ())
	for _, i := range a.RowIdx {
		r.RowPtr[i+1]++
	}
	for i := 0; i < r.NRows; i++ {
		r.RowPtr[i+1] += r.RowPtr[i]
	}
	next := append([]int(nil), r.RowPtr[:r.NRows]...)
	for j := 0; j < a.NCols; j++ {
		rows, vals := a.Col(j)
		for k, i := range rows {
			p := next[i]
			next[i]++
			r.ColIdx[p] = j
			r.Val[p] = vals[k]
		}
	}
	return r
}
