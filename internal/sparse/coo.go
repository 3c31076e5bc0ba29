package sparse

import (
	"fmt"
	"slices"

	"repro/internal/semiring"
)

// COO is a coordinate-format triplet builder. It accumulates (row, col, val)
// entries in any order and converts to CSR, combining duplicates with a
// caller-supplied binary operator (a "dup" monoid in GraphBLAS terms).
type COO[T semiring.Number] struct {
	NRows, NCols int
	Rows, Cols   []int
	Vals         []T
}

// NewCOO returns an empty nrows×ncols triplet builder.
func NewCOO[T semiring.Number](nrows, ncols int) *COO[T] {
	return &COO[T]{NRows: nrows, NCols: ncols}
}

// Append adds one triplet. Bounds are checked at ToCSR time.
func (c *COO[T]) Append(i, j int, v T) {
	c.Rows = append(c.Rows, i)
	c.Cols = append(c.Cols, j)
	c.Vals = append(c.Vals, v)
}

// Len returns the number of accumulated triplets (including duplicates).
func (c *COO[T]) Len() int { return len(c.Rows) }

// ToCSR converts to CSR, sorting by (row, col) and combining duplicate
// coordinates with dup (for example semiring.Plus to sum them, or
// semiring.Second to keep the last inserted). The sort is a stable two-pass
// counting sort — by column, then by row, O(nnz + nrows + ncols) — so
// duplicates reach dup in insertion order.
func (c *COO[T]) ToCSR(dup semiring.BinaryOp[T]) (*CSR[T], error) {
	for k := range c.Rows {
		if c.Rows[k] < 0 || c.Rows[k] >= c.NRows {
			return nil, fmt.Errorf("sparse: coo: row %d out of range [0,%d)", c.Rows[k], c.NRows)
		}
		if c.Cols[k] < 0 || c.Cols[k] >= c.NCols {
			return nil, fmt.Errorf("sparse: coo: col %d out of range [0,%d)", c.Cols[k], c.NCols)
		}
	}
	nnz := len(c.Rows)
	// Pass 1: triplet ids in column order. Pass 2 distributes them, in that
	// order, to their rows: within a row the columns ascend, and equal
	// coordinates keep their insertion order.
	byCol := make([]int, nnz)
	start := make([]int, c.NCols+1)
	for _, j := range c.Cols {
		start[j+1]++
	}
	for j := 0; j < c.NCols; j++ {
		start[j+1] += start[j]
	}
	for k, j := range c.Cols {
		byCol[start[j]] = k
		start[j]++
	}
	a := NewCSR[T](c.NRows, c.NCols)
	for _, i := range c.Rows {
		a.RowPtr[i+1]++
	}
	for i := 0; i < c.NRows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	next := slices.Clone(a.RowPtr[:c.NRows]) // where each row's next entry goes
	cols, vals := make([]int, nnz), make([]T, nnz)
	for _, k := range byCol {
		at := next[c.Rows[k]]
		cols[at], vals[at] = c.Cols[k], c.Vals[k]
		next[c.Rows[k]]++
	}

	// Fold duplicates in place; RowPtr is recounted over the distinct entries.
	n, k := 0, 0
	for i := 0; i < c.NRows; i++ {
		rowStart, end := n, a.RowPtr[i+1]
		for ; k < end; k++ {
			if n > rowStart && cols[n-1] == cols[k] {
				vals[n-1] = dup(vals[n-1], vals[k])
			} else {
				cols[n], vals[n] = cols[k], vals[k]
				n++
			}
		}
		a.RowPtr[i+1] = n
	}
	a.ColIdx, a.Val = cols[:n], vals[:n]
	return a, nil
}

// CSRFromTriplets is a convenience wrapper building a CSR matrix directly
// from parallel slices, summing duplicates.
func CSRFromTriplets[T semiring.Number](nrows, ncols int, rows, cols []int, vals []T) (*CSR[T], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("sparse: triplets: mismatched lengths %d/%d/%d",
			len(rows), len(cols), len(vals))
	}
	c := &COO[T]{NRows: nrows, NCols: ncols, Rows: rows, Cols: cols, Vals: vals}
	return c.ToCSR(semiring.Plus[T])
}
