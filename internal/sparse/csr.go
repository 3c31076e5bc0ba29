package sparse

import (
	"fmt"
	"sort"

	"repro/internal/semiring"
)

// CSR is a Compressed Sparse Rows matrix, the format the paper uses because
// it is what Chapel supports. It has three arrays: RowPtr is an integer array
// of length NRows+1 storing the start and end positions of the nonzeros of
// each row; ColIdx stores the column ids of nonzeros (sorted within each
// row); Val stores the numerical values. Random access to the start of a row
// is O(1).
type CSR[T semiring.Number] struct {
	NRows  int
	NCols  int
	RowPtr []int
	ColIdx []int
	Val    []T
}

// NewCSR returns an empty NRows×NCols matrix.
func NewCSR[T semiring.Number](nrows, ncols int) *CSR[T] {
	return &CSR[T]{NRows: nrows, NCols: ncols, RowPtr: make([]int, nrows+1)}
}

// NNZ returns the number of stored elements.
func (a *CSR[T]) NNZ() int { return len(a.ColIdx) }

// Row returns the column-id and value slices of row i (aliases into the
// matrix storage, not copies).
func (a *CSR[T]) Row(i int) (cols []int, vals []T) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// RowNNZ returns the number of stored elements in row i.
func (a *CSR[T]) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// Get returns the value at (i, j) and whether it is stored; binary search
// within the row.
func (a *CSR[T]) Get(i, j int) (T, bool) {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k], true
	}
	var zero T
	return zero, false
}

// Clone returns a deep copy.
func (a *CSR[T]) Clone() *CSR[T] {
	return &CSR[T]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]T(nil), a.Val...),
	}
}

// Equal reports whether a and b have identical dimensions, pattern and values.
func (a *CSR[T]) Equal(b *CSR[T]) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// Validate checks the CSR invariants: RowPtr monotone from 0 to nnz, column
// ids within range and strictly increasing within each row, and consistent
// array lengths.
func (a *CSR[T]) Validate() error {
	if len(a.RowPtr) != a.NRows+1 {
		return fmt.Errorf("sparse: csr: len(RowPtr)=%d, want %d", len(a.RowPtr), a.NRows+1)
	}
	if len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: csr: %d column ids but %d values", len(a.ColIdx), len(a.Val))
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: csr: RowPtr[0]=%d, want 0", a.RowPtr[0])
	}
	if a.RowPtr[a.NRows] != len(a.ColIdx) {
		return fmt.Errorf("sparse: csr: RowPtr[n]=%d, want nnz=%d", a.RowPtr[a.NRows], len(a.ColIdx))
	}
	for i := 0; i < a.NRows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: csr: RowPtr not monotone at row %d", i)
		}
		cols, _ := a.Row(i)
		for k, j := range cols {
			if j < 0 || j >= a.NCols {
				return fmt.Errorf("sparse: csr: row %d: column %d out of range [0,%d)", i, j, a.NCols)
			}
			if k > 0 && cols[k-1] >= j {
				return fmt.Errorf("sparse: csr: row %d: columns not strictly increasing (%d >= %d)",
					i, cols[k-1], j)
			}
		}
	}
	return nil
}

// Transpose returns Aᵀ in CSR form (an O(nnz) counting transpose).
func (a *CSR[T]) Transpose() *CSR[T] {
	t := NewCSR[T](a.NCols, a.NRows)
	t.ColIdx = make([]int, len(a.ColIdx))
	t.Val = make([]T, len(a.Val))
	// Count entries per column of A = per row of T.
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.NRows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:t.NRows]...)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			p := next[j]
			next[j]++
			t.ColIdx[p] = i
			t.Val[p] = vals[k]
		}
	}
	return t
}

// SubMatrix extracts the block with rows [r0, r1) and columns [c0, c1) as a
// new CSR matrix with local (shifted) indices, sized exactly. It is the
// primitive used to cut a global matrix into 2-D distributed blocks.
func (a *CSR[T]) SubMatrix(r0, r1, c0, c1 int) *CSR[T] {
	s := &CSR[T]{}
	a.cutInto(r0, r1, c0, c1, s)
	return s
}

// ColRangeInto cuts columns [c0, c1) of every row of a into out with shifted
// column ids, reusing out's arrays: they are regrown, to the exact size, only
// when the cut outgrows them. out must not alias a.
func (a *CSR[T]) ColRangeInto(c0, c1 int, out *CSR[T]) {
	a.cutInto(0, a.NRows, c0, c1, out)
}

// cutInto writes rows [r0, r1) × columns [c0, c1) of a into out. One count
// pass runs the per-row binary searches, so the output is sized before the
// copy pass writes it; between the passes out.RowPtr[i+1] holds where row
// i's window starts in a's storage.
func (a *CSR[T]) cutInto(r0, r1, c0, c1 int, out *CSR[T]) {
	nr := r1 - r0
	out.NRows, out.NCols = nr, c1-c0
	if cap(out.RowPtr) < nr+1 {
		out.RowPtr = make([]int, nr+1)
	}
	out.RowPtr = out.RowPtr[:nr+1]
	out.RowPtr[0] = 0
	total := 0
	for i := 0; i < nr; i++ {
		base := a.RowPtr[r0+i]
		cols := a.ColIdx[base:a.RowPtr[r0+i+1]]
		lo := sort.SearchInts(cols, c0)
		total += sort.SearchInts(cols[lo:], c1)
		out.RowPtr[i+1] = base + lo
	}
	if cap(out.ColIdx) < total {
		out.ColIdx = make([]int, total)
	}
	if cap(out.Val) < total {
		out.Val = make([]T, total)
	}
	out.ColIdx, out.Val = out.ColIdx[:total], out.Val[:total]
	pos := 0
	for i := 0; i < nr; i++ {
		lo, end := out.RowPtr[i+1], a.RowPtr[r0+i+1]
		k := lo
		for ; k < end && a.ColIdx[k] < c1; k++ {
			out.ColIdx[pos+k-lo] = a.ColIdx[k] - c0
		}
		copy(out.Val[pos:], a.Val[lo:k])
		pos += k - lo
		out.RowPtr[i+1] = pos
	}
}

// RowRangeView makes view a read-only window onto rows [r0, r1) of a, all
// columns: view's ColIdx and Val alias a's storage, and only the rebased row
// pointers are written, into the caller's view.RowPtr, which must have room
// for r1-r0+1 entries. Nothing may write through the view.
func (a *CSR[T]) RowRangeView(r0, r1 int, view *CSR[T]) {
	nr := r1 - r0
	base := a.RowPtr[r0]
	view.NRows, view.NCols = nr, a.NCols
	view.RowPtr = view.RowPtr[:nr+1]
	for i := range view.RowPtr {
		view.RowPtr[i] = a.RowPtr[r0+i] - base
	}
	end := a.RowPtr[r1]
	view.ColIdx = a.ColIdx[base:end:end]
	view.Val = a.Val[base:end:end]
}

// String renders small matrices for debugging.
func (a *CSR[T]) String() string {
	if a.NNZ() > 32 {
		return fmt.Sprintf("CSR{%dx%d nnz=%d}", a.NRows, a.NCols, a.NNZ())
	}
	s := fmt.Sprintf("CSR{%dx%d", a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			s += fmt.Sprintf(" (%d,%d)=%v", i, j, vals[k])
		}
	}
	return s + "}"
}
