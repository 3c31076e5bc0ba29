package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// EWiseMultSD computes the sparse–dense element-wise product of the paper's
// Listing 6: given a sparse vector x and a dense vector y over the same index
// space, it returns a sparse vector z containing the entries x[i] for which
// pred(x[i], y[i]) holds.
//
// Per locale, the surviving indices are compacted through an atomic
// fetch-and-add cursor into a temporary keepInd array (exactly the paper's
// approach — the atomics are what caps the speedup at ~13× on 24 threads),
// then bulk-inserted into the output's local domain.
func EWiseMultSD[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], y *dist.DenseVec[T], pred semiring.Pred[T]) (*dist.SpVec[T], error) {
	if x.N != y.N {
		return nil, fmt.Errorf("core: EWiseMultSD: capacity mismatch %d vs %d", x.N, y.N)
	}
	z := dist.NewSpVec[T](rt, x.N)
	if err := EWiseMultSDInto(rt, x, y, pred, z); err != nil {
		return nil, err
	}
	return z, nil
}

// EWiseMultSDInto is EWiseMultSD writing into an existing destination, reusing
// the capacity of z's local blocks: steady-state calls on a stable problem
// size allocate nothing (the keepInd scratch comes from the runtime's arena).
// z must have x's capacity; its previous contents are discarded.
func EWiseMultSDInto[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], y *dist.DenseVec[T], pred semiring.Pred[T], z *dist.SpVec[T]) error {
	defer rt.Span("EWiseMultSD").End()
	if x.N != y.N || z.N != x.N {
		return fmt.Errorf("core: EWiseMultSD: capacity mismatch %d vs %d into %d", x.N, y.N, z.N)
	}
	// Open-coded coforall (spawn charge + per-locale bodies + barrier): a
	// rt.Coforall closure would allocate on every call.
	rt.S.CoforallSpawn()
	for l := 0; l < rt.G.P; l++ {
		lx := x.Loc[l]
		ly := y.Loc[l]
		base := y.Bounds[l]
		nnz := lx.NNZ()

		// Real work: predicate scan with atomic compaction (Listing 6 lines
		// 17–21). keepPos[k] records the position in lx of the k-th survivor.
		keepPos := sparse.GetSlice[int32](rt.Scratch, nnz)
		kept := 0
		if rt.RealWorkers <= 1 {
			// Sequential fast path: the "atomic" cursor degenerates to a plain
			// counter and no closure is created. Every position is written and
			// the cursor advances only past survivors, so the predicate's
			// outcome feeds a conditional add, not a mispredicted branch
			// (kept <= k, so the write stays inside keepPos).
			for k := 0; k < nnz; k++ {
				keepPos[kept] = int32(k)
				if pred(lx.Val[k], ly[lx.Ind[k]-base]) {
					kept++
				}
			}
		} else {
			kept = ewiseScanPar(rt, lx, ly, base, pred, keepPos)
		}
		keepPos = keepPos[:kept] // keepInd.remove(k.read(), nnz-k.read())

		// Restore index order, which the concurrent compaction scrambles (the
		// sequential scan emits positions in order). Then build the local
		// block of z: lzDom.mySparseBlock += keepInd, plus the values.
		if rt.RealWorkers > 1 {
			sparse.RadixSortInts32(keepPos)
		}
		lz := z.Loc[l]
		if cap(lz.Ind) < kept {
			lz.Ind = make([]int, kept)
		} else {
			lz.Ind = lz.Ind[:kept]
		}
		if cap(lz.Val) < kept {
			lz.Val = make([]T, kept)
		} else {
			lz.Val = lz.Val[:kept]
		}
		for i, k := range keepPos {
			lz.Ind[i] = lx.Ind[k]
			lz.Val[i] = lx.Val[k]
		}
		sparse.PutSlice(rt.Scratch, keepPos)

		// Model: the scan kernel (atomic-compaction bound) and the output
		// domain construction.
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:           "ewisemult-scan",
			Items:          int64(nnz),
			CPUPerItem:     costEWiseCPU,
			BytesPerItem:   costEWiseBytes,
			AtomicsPerItem: costEWiseAtomics,
		})
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "ewisemult-output",
			Items:        int64(kept),
			CPUPerItem:   costEWiseOutCPU,
			BytesPerItem: costEWiseBytes,
		})
	}
	rt.S.Barrier()
	return nil
}

// ewiseScanPar runs the atomic-compaction predicate scan on the worker pool.
// Only reached when RealWorkers > 1, keeping the closure and the atomic
// cursor off the sequential (allocation-free) path.
func ewiseScanPar[T semiring.Number](rt *locale.Runtime, lx *sparse.Vec[T], ly []T, base int, pred semiring.Pred[T], keepPos []int32) int {
	var cursor atomic.Int64
	rt.ParFor(lx.NNZ(), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if pred(lx.Val[k], ly[lx.Ind[k]-base]) {
				slot := cursor.Add(1) - 1
				keepPos[slot] = int32(k)
			}
		}
	})
	return int(cursor.Load())
}

// EWiseMultSDNoAtomic is the optimization the paper sketches ("we can avoid
// the atomic variable by keeping a thread-private array in each thread and
// merge these thread-private arrays via a prefix sum operation"): each worker
// compacts survivors into a private buffer; a prefix sum over the per-worker
// counts places each buffer, preserving index order without atomics.
func EWiseMultSDNoAtomic[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], y *dist.DenseVec[T], pred semiring.Pred[T]) (*dist.SpVec[T], error) {
	defer rt.Span("EWiseMultSDNoAtomic").End()
	if x.N != y.N {
		return nil, fmt.Errorf("core: EWiseMultSDNoAtomic: capacity mismatch %d vs %d", x.N, y.N)
	}
	z := dist.NewSpVec[T](rt, x.N)
	rt.Coforall(func(l int) {
		lx := x.Loc[l]
		ly := y.Loc[l]
		base := y.Bounds[l]
		nnz := lx.NNZ()

		workers := rt.RealWorkers
		if workers < 1 {
			workers = 1
		}
		if workers > nnz && nnz > 0 {
			workers = nnz
		}
		private := make([][]int32, workers)
		if nnz > 0 {
			rt.WP.ParForChunk(workers, nnz, func(w, lo, hi int) {
				var buf []int32
				for k := lo; k < hi; k++ {
					if pred(lx.Val[k], ly[lx.Ind[k]-base]) {
						buf = append(buf, int32(k))
					}
				}
				private[w] = buf
			})
		}
		// Prefix sum over private counts; buffers are already ordered and
		// worker w's range precedes worker w+1's, so concatenation is sorted.
		kept := 0
		for _, buf := range private {
			kept += len(buf)
		}
		lz := z.Loc[l]
		lz.Ind = make([]int, 0, kept)
		lz.Val = make([]T, 0, kept)
		for _, buf := range private {
			for _, k := range buf {
				lz.Ind = append(lz.Ind, lx.Ind[k])
				lz.Val = append(lz.Val, lx.Val[k])
			}
		}

		// Model: same scan without the serialized atomic term, plus a cheap
		// prefix-sum/merge pass, plus output construction.
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "ewisemult-noatomic-scan",
			Items:        int64(nnz),
			CPUPerItem:   costEWiseCPU,
			BytesPerItem: costEWiseBytes,
		})
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "ewisemult-noatomic-output",
			Items:        int64(kept),
			CPUPerItem:   costEWiseOutCPU,
			BytesPerItem: costEWiseBytes,
		})
	})
	return z, nil
}
