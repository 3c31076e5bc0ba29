package core

// The node-local half of the Sparse SUMMA stage multiply: C = A·B over a
// semiring, for the stage blocks one locale holds after the broadcasts. Two
// kernels cover the density regimes Buluç & Gilbert distinguish:
//
//   - hash: Gustavson's row-by-row algorithm with a dense SPA accumulator —
//     best once A's rows fan out to many B rows.
//   - heap: a k-way merge over the B rows an A row references, keyed by a
//     binary heap of the runs' front columns — touches only the referenced
//     entries, best for the short hypersparse rows a high-locale-count
//     SUMMA stage produces.
//
// Both write sorted rows and accumulate values in increasing column order,
// so they agree bitwise with each other (and, over exact element types, with
// RefSpGEMM). Both draw every scratch buffer from the runtime's ScratchPool
// and append into the caller's reused output matrix: after warmup a call
// allocates nothing (the `spgemm_local` kernel of the CI alloc gate).
//
// When A is hypersparse (nnz < nrows) the row loops run over a pooled DCSC
// image of A instead of scanning the full RowPtr, so an almost-empty block
// costs O(nzr + flops), not O(nrows).
//
// Every kernel takes an output mask of the product's shape, nil for none: only
// its stored positions are written (CombBLAS 2.0's masked SpGEMM). A surviving
// entry receives the unmasked kernel's contributions in the unmasked order, so
// the result is bitwise the unmasked product restricted to the mask.

import (
	"slices"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// spgemmResize readies out to receive an nr×nc product, reusing its arrays.
func spgemmResize[T semiring.Number](out *sparse.CSR[T], nr, nc int) {
	out.NRows, out.NCols = nr, nc
	if cap(out.RowPtr) < nr+1 {
		out.RowPtr = make([]int, nr+1)
	}
	out.RowPtr = out.RowPtr[:nr+1]
	for i := range out.RowPtr {
		out.RowPtr[i] = 0
	}
	out.ColIdx = out.ColIdx[:0]
	out.Val = out.Val[:0]
}

// fixRowPtr turns the per-row end marks the kernels wrote (zero for skipped
// rows) into cumulative offsets.
func fixRowPtr[T semiring.Number](out *sparse.CSR[T]) {
	for i := 1; i < len(out.RowPtr); i++ {
		if out.RowPtr[i] < out.RowPtr[i-1] {
			out.RowPtr[i] = out.RowPtr[i-1]
		}
	}
}

// forEachRow drives a kernel over A's non-empty rows, through a pooled DCSC
// image when A is hypersparse so empty rows cost nothing. Under a mask the
// body is also handed row i of the mask, and rows whose mask row is empty are
// skipped: nothing they could produce survives.
func forEachRow[T semiring.Number](scratch *sparse.ScratchPool, a, mask *sparse.CSR[T], body func(i int, cols []int, vals []T, mCols []int)) {
	row := func(i int, cols []int, vals []T) {
		if mask == nil {
			body(i, cols, vals, nil)
		} else if mCols, _ := mask.Row(i); len(mCols) > 0 {
			body(i, cols, vals, mCols)
		}
	}
	if sparse.Hypersparse(a) {
		d := sparse.GetDCSC[T](scratch)
		d.FromCSR(a)
		for k := 0; k < d.NzRows(); k++ {
			row(d.RowAt(k))
		}
		sparse.PutDCSC(scratch, d)
		return
	}
	for i := 0; i < a.NRows; i++ {
		if cols, vals := a.Row(i); len(cols) > 0 {
			row(i, cols, vals)
		}
	}
}

// SpGEMMLocalHash computes out = a·b with the SPA (hash) kernel, appending
// into out's reused arrays. It returns the multiply-adds performed, for cost
// charging. Each B row an A entry references is folded into the SPA by the
// row kernel's first-touch accumulate, inline for a built-in semiring. Under a
// mask the harvest walks the sorted mask row instead of sorting what was claimed.
func SpGEMMLocalHash[T semiring.Number](scratch *sparse.ScratchPool, a, b *sparse.CSR[T], sr semiring.Semiring[T], out, mask *sparse.CSR[T]) int64 {
	spgemmResize(out, a.NRows, b.NCols)
	spa := sparse.GetSPA[T](scratch, b.NCols)
	defer sparse.PutSPA(scratch, spa)
	rk := newRowKernel(sr)
	var flops int64
	forEachRow(scratch, a, mask, func(i int, aCols []int, aVals []T, mCols []int) {
		for t, k := range aCols {
			bCols, bVals := b.Row(k)
			flops += int64(len(bCols))
			rk.spaRow(spa.Val, spa.IsThere, bCols, bVals, aVals[t], &spa.NzInds)
		}
		if mask != nil {
			for _, j := range mCols {
				if spa.IsThere[j] {
					out.ColIdx = append(out.ColIdx, j)
					out.Val = append(out.Val, spa.Val[j])
				}
			}
			for _, j := range spa.NzInds {
				spa.IsThere[j] = false
			}
		} else {
			// Harvest the row in column order, clearing the SPA on the way.
			sparse.RadixSortInts(spa.NzInds)
			base, n := len(out.ColIdx), len(spa.NzInds)
			out.ColIdx = slices.Grow(out.ColIdx, n)[:base+n]
			out.Val = slices.Grow(out.Val, n)[:base+n]
			cols, vals := out.ColIdx[base:], out.Val[base:]
			for u, j := range spa.NzInds {
				cols[u], vals[u] = j, spa.Val[j]
				spa.IsThere[j] = false
			}
		}
		spa.NzInds = spa.NzInds[:0]
		out.RowPtr[i+1] = len(out.ColIdx)
	})
	fixRowPtr(out)
	return flops
}

// SpGEMMLocalHeap computes out = a·b with the k-way heap-merge kernel,
// appending into out's reused arrays. It returns the multiply-adds performed,
// for cost charging. The heap orders run ids by their runs' front columns with
// direct comparisons, and a built-in semiring's ⊗ and ⊕ are the row kernel's
// inlined scalars. Under a mask the merged columns walk the mask row in step: a
// column outside it is popped unmultiplied, and the row ends when the mask row does.
func SpGEMMLocalHeap[T semiring.Number](scratch *sparse.ScratchPool, a, b *sparse.CSR[T], sr semiring.Semiring[T], out, mask *sparse.CSR[T]) int64 {
	spgemmResize(out, a.NRows, b.NCols)
	maxRow := 0
	for i := 0; i < a.NRows; i++ {
		if n := a.RowPtr[i+1] - a.RowPtr[i]; n > maxRow {
			maxRow = n
		}
	}
	ints := sparse.GetSlice[int](scratch, 3*maxRow)
	defer sparse.PutSlice(scratch, ints)
	heads, ends, heap := ints[:maxRow], ints[maxRow:2*maxRow], ints[2*maxRow:3*maxRow]
	av := sparse.GetVec[T](scratch, maxRow)
	defer sparse.PutVec(scratch, av)
	rk := newRowKernel(sr)
	generic := rk.kind == semiring.KindGeneric
	var flops int64
	forEachRow(scratch, a, mask, func(i int, aCols []int, aVals []T, mCols []int) {
		// One merge run per non-empty B row A's row references; each run
		// carries its A multiplier in av.Val, indexed by run id.
		hn := 0
		av.Val = av.Val[:0]
		for t, k := range aCols {
			lo, hi := b.RowPtr[k], b.RowPtr[k+1]
			if lo == hi {
				continue
			}
			heads[hn], ends[hn] = lo, hi
			av.Val = append(av.Val, aVals[t])
			heap[hn] = hn
			hn++
		}
		for h := hn/2 - 1; h >= 0; h-- {
			siftDown(heap[:hn], h, heads, b.ColIdx)
		}
		rowStart := len(out.ColIdx)
		for hn > 0 {
			r := heap[0]
			j := b.ColIdx[heads[r]]
			if mask != nil {
				for len(mCols) > 0 && mCols[0] < j {
					mCols = mCols[1:]
				}
				if len(mCols) == 0 {
					break
				}
			}
			if mask == nil || mCols[0] == j {
				var v T
				if generic {
					v = rk.mul(av.Val[r], b.Val[heads[r]])
				} else {
					v = rk.product(av.Val[r], b.Val[heads[r]])
				}
				if n := len(out.ColIdx); n == rowStart || out.ColIdx[n-1] != j {
					out.ColIdx = append(out.ColIdx, j)
					out.Val = append(out.Val, v)
				} else if generic {
					out.Val[n-1] = rk.add(out.Val[n-1], v)
				} else {
					out.Val[n-1] = rk.sum(out.Val[n-1], v)
				}
				flops++
			}
			heads[r]++
			if heads[r] == ends[r] {
				heap[0] = heap[hn-1]
				hn--
			}
			siftDown(heap[:hn], 0, heads, b.ColIdx)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	})
	fixRowPtr(out)
	return flops
}

// siftDown restores the heap property below index i of a heap of run ids
// ordered by the column each run's head points at.
func siftDown(h []int, i int, heads, cols []int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && cols[heads[h[r]]] < cols[heads[h[l]]] {
			m = r
		}
		if !(cols[heads[h[m]]] < cols[heads[h[i]]]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// SpGEMMLocal computes out = a·b, choosing the kernel by A's density: the
// heap merge for hypersparse stage blocks, the SPA otherwise. The two agree
// bitwise, so the choice is purely one of constant factors. The mask is the
// optional last argument (at most one; absent or nil means unmasked) because
// the end-to-end benchmark calls the five-argument form.
func SpGEMMLocal[T semiring.Number](scratch *sparse.ScratchPool, a, b *sparse.CSR[T], sr semiring.Semiring[T], out *sparse.CSR[T], mask ...*sparse.CSR[T]) int64 {
	var m *sparse.CSR[T]
	if len(mask) > 0 {
		m = mask[0]
	}
	if sparse.Hypersparse(a) {
		return SpGEMMLocalHeap(scratch, a, b, sr, out, m)
	}
	return SpGEMMLocalHash(scratch, a, b, sr, out, m)
}
