// Package sparse provides the local (single-locale) sparse data structures of
// the library: CSR matrices, sparse vectors with sorted index lists, dense
// vectors, COO builders, the sparse accumulator (SPA), parallel sorting
// routines, and random workload generators.
//
// The formats mirror the paper exactly: a CSR matrix keeps the column ids of
// nonzeros within each row sorted; a sparse vector keeps its indices sorted in
// an array, so random access by index costs O(log nnz) — the cost the paper's
// Assign1 pays — while ordered iteration costs O(nnz).
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/semiring"
)

// Vec is a sparse vector of capacity N: a sorted list of indices paired with
// values. nnz(x) = len(Ind) <= N. The format is space efficient, requiring
// O(nnz) storage.
type Vec[T semiring.Number] struct {
	N   int   // capacity (logical length of the vector)
	Ind []int // sorted, distinct indices of stored elements
	Val []T   // Val[k] is the value stored at index Ind[k]
}

// NewVec returns an empty sparse vector of capacity n.
func NewVec[T semiring.Number](n int) *Vec[T] {
	return &Vec[T]{N: n}
}

// VecOf builds a sparse vector from parallel index/value slices. The indices
// must be distinct; they are sorted (with values carried along) if necessary.
func VecOf[T semiring.Number](n int, ind []int, val []T) (*Vec[T], error) {
	if len(ind) != len(val) {
		return nil, fmt.Errorf("sparse: VecOf: %d indices but %d values", len(ind), len(val))
	}
	v := &Vec[T]{N: n, Ind: append([]int(nil), ind...), Val: append([]T(nil), val...)}
	if !sort.IntsAreSorted(v.Ind) {
		sortPairs(v.Ind, v.Val)
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// sortPairs sorts ind ascending, permuting val identically.
func sortPairs[T any](ind []int, val []T) {
	perm := make([]int, len(ind))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return ind[perm[a]] < ind[perm[b]] })
	indCopy := append([]int(nil), ind...)
	valCopy := append([]T(nil), val...)
	for i, p := range perm {
		ind[i] = indCopy[p]
		val[i] = valCopy[p]
	}
}

// NNZ returns the number of stored elements.
func (v *Vec[T]) NNZ() int { return len(v.Ind) }

// Get returns the value at index i and whether it is stored. It uses binary
// search over the sorted index list: O(log nnz), the cost that makes the
// paper's Assign1 an order of magnitude slower than Assign2.
func (v *Vec[T]) Get(i int) (T, bool) {
	k := sort.SearchInts(v.Ind, i)
	if k < len(v.Ind) && v.Ind[k] == i {
		return v.Val[k], true
	}
	var zero T
	return zero, false
}

// Set stores value x at index i, inserting if absent. Insertion in the middle
// is O(nnz); Set exists for construction and tests, not for inner loops.
func (v *Vec[T]) Set(i int, x T) error {
	if i < 0 || i >= v.N {
		return fmt.Errorf("sparse: Vec.Set: index %d out of range [0,%d)", i, v.N)
	}
	k := sort.SearchInts(v.Ind, i)
	if k < len(v.Ind) && v.Ind[k] == i {
		v.Val[k] = x
		return nil
	}
	v.Ind = append(v.Ind, 0)
	v.Val = append(v.Val, x)
	copy(v.Ind[k+1:], v.Ind[k:])
	copy(v.Val[k+1:], v.Val[k:])
	v.Ind[k] = i
	v.Val[k] = x
	return nil
}

// Clear removes all stored elements, keeping the capacity.
func (v *Vec[T]) Clear() {
	v.Ind = v.Ind[:0]
	v.Val = v.Val[:0]
}

// Clone returns a deep copy.
func (v *Vec[T]) Clone() *Vec[T] {
	return &Vec[T]{
		N:   v.N,
		Ind: append([]int(nil), v.Ind...),
		Val: append([]T(nil), v.Val...),
	}
}

// Equal reports whether v and w have the same capacity, pattern, and values.
func (v *Vec[T]) Equal(w *Vec[T]) bool {
	if v.N != w.N || len(v.Ind) != len(w.Ind) {
		return false
	}
	for k := range v.Ind {
		if v.Ind[k] != w.Ind[k] || v.Val[k] != w.Val[k] {
			return false
		}
	}
	return true
}

// Validate checks the representation invariants: indices sorted, distinct and
// within [0, N), and len(Ind) == len(Val).
func (v *Vec[T]) Validate() error {
	if len(v.Ind) != len(v.Val) {
		return fmt.Errorf("sparse: vec: %d indices but %d values", len(v.Ind), len(v.Val))
	}
	for k, i := range v.Ind {
		if i < 0 || i >= v.N {
			return fmt.Errorf("sparse: vec: index %d out of range [0,%d)", i, v.N)
		}
		if k > 0 && v.Ind[k-1] >= i {
			return fmt.Errorf("sparse: vec: indices not strictly increasing at position %d (%d >= %d)",
				k, v.Ind[k-1], i)
		}
	}
	return nil
}

// ToDense scatters the vector into a dense slice of length N, with absent
// positions holding fill.
func (v *Vec[T]) ToDense(fill T) []T {
	d := make([]T, v.N)
	if fill != 0 {
		for i := range d {
			d[i] = fill
		}
	}
	for k, i := range v.Ind {
		d[i] = v.Val[k]
	}
	return d
}

// String renders small vectors for debugging.
func (v *Vec[T]) String() string {
	if len(v.Ind) > 16 {
		return fmt.Sprintf("Vec{n=%d nnz=%d}", v.N, len(v.Ind))
	}
	s := fmt.Sprintf("Vec{n=%d", v.N)
	for k, i := range v.Ind {
		s += fmt.Sprintf(" %d:%v", i, v.Val[k])
	}
	return s + "}"
}

// Dense is a dense vector: every one of its N positions holds a value.
type Dense[T semiring.Number] struct {
	Data []T
}

// NewDense returns a dense vector of length n, zero-filled.
func NewDense[T semiring.Number](n int) *Dense[T] {
	return &Dense[T]{Data: make([]T, n)}
}

// NewDenseFill returns a dense vector of length n with every position = fill.
func NewDenseFill[T semiring.Number](n int, fill T) *Dense[T] {
	d := &Dense[T]{Data: make([]T, n)}
	if fill != 0 {
		for i := range d.Data {
			d.Data[i] = fill
		}
	}
	return d
}

// Len returns the length of the vector.
func (d *Dense[T]) Len() int { return len(d.Data) }

// Get returns the value at index i.
func (d *Dense[T]) Get(i int) T { return d.Data[i] }

// Set stores x at index i.
func (d *Dense[T]) Set(i int, x T) { d.Data[i] = x }

// Clone returns a deep copy.
func (d *Dense[T]) Clone() *Dense[T] {
	return &Dense[T]{Data: append([]T(nil), d.Data...)}
}

// Equal reports elementwise equality.
func (d *Dense[T]) Equal(e *Dense[T]) bool {
	if len(d.Data) != len(e.Data) {
		return false
	}
	for i := range d.Data {
		if d.Data[i] != e.Data[i] {
			return false
		}
	}
	return true
}
