package core

import (
	"sync/atomic"

	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// Engine selects the shared-memory SpMSpV pipeline.
type Engine int

const (
	// EngineMergeSort, the zero value, is the paper's SPA → Sort → Output
	// pipeline with parallel merge sort (Fig 7).
	EngineMergeSort Engine = iota
	// EngineRadixSort is the paper's pipeline with the LSD radix sort the
	// paper expects to cut the sorting cost.
	EngineRadixSort
	// EngineBucket is the sort-free bucketed pipeline: Bucket-scatter →
	// per-bucket merge → ordered concat. No global sort, no global atomic
	// fetch-and-add; deterministic for any worker count.
	EngineBucket
)

// String names the engine for trace tags and diagnostics.
func (e Engine) String() string {
	switch e {
	case EngineRadixSort:
		return "radixsort"
	case EngineBucket:
		return "bucket"
	default:
		return "mergesort"
	}
}

// ShmConfig configures a shared-memory SpMSpV call.
type ShmConfig struct {
	// Threads is the modeled thread count.
	Threads int
	// Workers is the number of real goroutines used.
	Workers int
	// Engine selects the pipeline; the zero value is the paper's merge sort.
	Engine Engine
	// Sim, if non-nil, receives cost charges on locale Loc. When Phased is
	// set the three components are recorded as the phases "SPA", "Sorting"
	// and "Output" (the breakdown of Fig 7).
	Sim    *sim.Sim
	Loc    int
	Phased bool
	// Trace, if non-nil, receives a span per kernel call (nil-safe; see
	// internal/trace). Distributed operations propagate the runtime's tracer
	// here so per-locale kernel calls become child spans.
	Trace *trace.Tracer
	// Pool is the persistent worker pool the parallel sections run on; nil
	// routes to the process-wide shared pool. Distributed operations
	// propagate the runtime's pool here so local multiplies never spawn.
	Pool *workpool.Pool
	// Scratch is the kernel scratch arena (see internal/sparse.ScratchPool):
	// dense accumulators and the output vector's backing arrays are checked
	// out of it, making steady-state calls allocation-free. Nil degrades
	// every checkout to a plain allocation.
	Scratch *sparse.ScratchPool
}

// ShmStats reports the work a SpMSpV call performed.
type ShmStats struct {
	RowsSelected   int   // rows of A fetched (nonzeros of x with a matching row)
	EntriesVisited int64 // matrix entries scanned during the SPA phase
	NnzOut         int   // stored elements in the result
}

// SpMSpVShm is the paper's Listing 7: the shared-memory sparse matrix –
// sparse vector multiplication y ← xA using a sparse accumulator.
//
// The input x is interpreted as a sparse row vector whose stored indices
// select rows of A; the result y marks every column reachable from a selected
// row, with the discovering row id as its value (the "localy" of the paper —
// which is exactly a BFS parent). The three steps are:
//
//  1. SPA: iterate the nonzeros of x in parallel, scan the selected rows, and
//     claim each newly seen column with an atomic isthere flag, compacting
//     claimed columns through an atomic fetch-and-add cursor;
//  2. Sorting: sort the claimed column indices;
//  3. Output: build the result vector from the sorted indices and the SPA.
//
// When cfg.Workers > 1 the claim winners are scheduling-dependent, so values
// may differ between runs (every value is always a valid discovering row);
// with Workers == 1 the result is deterministic.
//
// The returned vector's backing arrays come from cfg.Scratch (when set);
// the caller owns it and may recycle it with sparse.PutVec once done.
func SpMSpVShm[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], cfg ShmConfig) (*sparse.Vec[int64], ShmStats) {
	if cfg.Engine == EngineBucket {
		return spmspvBucket(a, x, cfg)
	}
	var sp *trace.Span
	if cfg.Trace != nil {
		sp = cfg.Trace.Begin("SpMSpVShm", trace.T("engine", cfg.Engine.String()))
	}
	defer sp.End()
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	var st ShmStats

	// Step 1: SPA.
	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("SPA")
	}
	spa := sparse.GetAtomicSPA[T](cfg.Scratch, a.NCols)
	nnzX := x.NNZ()
	if cfg.Workers <= 1 {
		// Sequential fast path: no closure is created here, so the loop
		// stays allocation-free (a closure literal would escape).
		var seen int64
		for k := 0; k < nnzX; k++ {
			rid := x.Ind[k]
			if rid < 0 || rid >= a.NRows {
				continue
			}
			cols, _ := a.Row(rid)
			seen += int64(len(cols))
			for _, colid := range cols {
				// Only keeping the first index; keep row index as value.
				// The only writer claims without locked instructions.
				if spa.Claim(colid) {
					spa.LocalY[colid] = int64(rid)
				}
			}
		}
		st.EntriesVisited = seen
	} else {
		st.EntriesVisited = spaScatterPar(a, x, spa, cfg.Pool, cfg.Workers, nnzX)
	}
	st.RowsSelected = nnzX
	if cfg.Sim != nil {
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:           "spmspv-spa",
			Items:          st.EntriesVisited,
			CPUPerItem:     costSpaCPU,
			BytesPerItem:   costSpaBytes,
			AtomicsPerItem: costSpaAtomics,
		})
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:       "spmspv-spa-rows",
			Items:      int64(nnzX),
			CPUPerItem: costSpaPerRow,
		})
	}

	// Step 2: remove unused entries and sort.
	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Sorting")
	}
	nzinds := spa.CompactInds()
	chargeSort(cfg, nzinds)

	// Step 3: populate the output vector.
	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Output")
	}
	y := sparse.GetVec[int64](cfg.Scratch, a.NCols)
	y.Ind = append(y.Ind, nzinds...)
	if cap(y.Val) < len(nzinds) {
		y.Val = make([]int64, len(nzinds))
	} else {
		y.Val = y.Val[:len(nzinds)]
	}
	if cfg.Workers <= 1 {
		for k, i := range y.Ind {
			y.Val[k] = spa.LocalY[i]
		}
	} else {
		cfg.Pool.ParFor(cfg.Workers, len(y.Ind), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				y.Val[k] = spa.LocalY[y.Ind[k]]
			}
		})
	}
	sparse.PutAtomicSPA(cfg.Scratch, spa)
	st.NnzOut = len(y.Ind)
	if cfg.Sim != nil {
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:         "spmspv-output",
			Items:        int64(len(y.Ind)),
			CPUPerItem:   costOutputCPU,
			BytesPerItem: costOutputBytes,
		})
		if cfg.Phased {
			cfg.Sim.EndPhase()
		}
	}
	return y, st
}

// spaScatterPar runs the claim scatter on the worker pool. Only reached when
// Workers > 1, keeping its closure and counter off the sequential path.
func spaScatterPar[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], spa *sparse.AtomicSPA[T], wp *workpool.Pool, workers, nnzX int) int64 {
	var visited atomic.Int64
	wp.ParFor(workers, nnzX, func(lo, hi int) {
		var seen int64
		for k := lo; k < hi; k++ {
			rid := x.Ind[k]
			if rid < 0 || rid >= a.NRows {
				continue
			}
			cols, _ := a.Row(rid)
			seen += int64(len(cols))
			for _, colid := range cols {
				if spa.TryClaim(colid) {
					spa.LocalY[colid] = int64(rid)
				}
			}
		}
		visited.Add(seen)
	})
	return visited.Load()
}

// chargeSort sorts nzinds in place with the configured algorithm and charges
// the model for the work actually performed.
func chargeSort(cfg ShmConfig, nzinds []int) {
	switch cfg.Engine {
	case EngineRadixSort:
		passes := sparse.RadixSortInts(nzinds)
		if cfg.Sim != nil {
			cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
				Name:         "spmspv-radixsort",
				Items:        int64(len(nzinds)) * int64(passes),
				CPUPerItem:   costRadixPerElem,
				BytesPerItem: 16,
			})
		}
	default:
		stats := sparse.MergeSortInts(nzinds, cfg.Workers)
		if cfg.Sim != nil {
			// Comparisons parallelize across threads; the final merge chain
			// (~n comparisons) is serial.
			cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
				Name:       "spmspv-mergesort",
				Items:      stats.Comparisons,
				CPUPerItem: costSortPerCmp,
			})
			cfg.Sim.Compute(cfg.Loc, 1, sim.Kernel{
				Name:       "spmspv-mergesort-final",
				Items:      int64(len(nzinds)),
				CPUPerItem: costSortPerCmp,
			})
		}
	}
}

// SpMSpVShmSemiring computes the general semiring product y[j] =
// ⊕_{i : x[i]≠0} x[i] ⊗ A[i,j] in shared memory. Each worker accumulates
// into a thread-private SPA; the private SPAs are merged with the additive
// monoid (the atomic-free organization the paper suggests). The result is
// deterministic for commutative, associative monoids regardless of the
// worker count.
func SpMSpVShmSemiring[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], sr semiring.Semiring[T], cfg ShmConfig) (*sparse.Vec[T], ShmStats) {
	if cfg.Engine == EngineBucket {
		return spmspvBucketSemiring(a, x, sr, cfg)
	}
	var sp *trace.Span
	if cfg.Trace != nil {
		sp = cfg.Trace.Begin("SpMSpVShmSemiring", trace.T("engine", cfg.Engine.String()))
	}
	defer sp.End()
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	var st ShmStats
	nnzX := x.NNZ()
	workers := cfg.Workers
	if workers > nnzX {
		workers = nnzX
	}
	if workers < 1 {
		workers = 1
	}

	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("SPA")
	}
	var root *sparse.SPA[T]
	mergedItems := int64(0)
	if workers <= 1 {
		root = sparse.GetSPA[T](cfg.Scratch, a.NCols)
		var seen int64
		for k := 0; k < nnzX; k++ {
			rid := x.Ind[k]
			if rid < 0 || rid >= a.NRows {
				continue
			}
			cols, vals := a.Row(rid)
			seen += int64(len(cols))
			xv := x.Val[k]
			for c, colid := range cols {
				root.Scatter(colid, sr.Mul(xv, vals[c]), sr.Add.Op)
			}
		}
		st.EntriesVisited = seen
	} else {
		spas := make([]*sparse.SPA[T], workers)
		counts := make([]int64, workers)
		cfg.Pool.ParForChunk(workers, nnzX, func(w, lo, hi int) {
			spa := sparse.GetSPA[T](cfg.Scratch, a.NCols)
			var seen int64
			for k := lo; k < hi; k++ {
				rid := x.Ind[k]
				if rid < 0 || rid >= a.NRows {
					continue
				}
				cols, vals := a.Row(rid)
				seen += int64(len(cols))
				xv := x.Val[k]
				for c, colid := range cols {
					spa.Scatter(colid, sr.Mul(xv, vals[c]), sr.Add.Op)
				}
			}
			spas[w] = spa
			counts[w] = seen
		})
		// Merge thread-private SPAs into the first (deterministic order).
		root = spas[0]
		for w := 1; w < workers; w++ {
			for _, i := range spas[w].NzInds {
				root.Scatter(i, spas[w].Val[i], sr.Add.Op)
				mergedItems++
			}
			sparse.PutSPA(cfg.Scratch, spas[w])
		}
		for _, c := range counts {
			st.EntriesVisited += c
		}
	}
	st.RowsSelected = nnzX
	if cfg.Sim != nil {
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:         "spmspv-sr-spa",
			Items:        st.EntriesVisited,
			CPUPerItem:   costSpaCPU,
			BytesPerItem: costSpaBytes,
			// No atomic term: thread-private accumulation.
		})
		cfg.Sim.Compute(cfg.Loc, rowMergeThreads(cfg.Threads), sim.Kernel{
			Name:       "spmspv-sr-merge",
			Items:      mergedItems,
			CPUPerItem: costSpaCPU / 2,
		})
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:       "spmspv-spa-rows",
			Items:      int64(nnzX),
			CPUPerItem: costSpaPerRow,
		})
	}

	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Sorting")
	}
	y := sparse.GetVec[T](cfg.Scratch, a.NCols)
	y.Ind = append(y.Ind, root.NzInds...)
	chargeSort(cfg, y.Ind)

	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Output")
	}
	if cap(y.Val) < len(y.Ind) {
		y.Val = make([]T, len(y.Ind))
	} else {
		y.Val = y.Val[:len(y.Ind)]
	}
	for k, i := range y.Ind {
		y.Val[k] = root.Val[i]
	}
	sparse.PutSPA(cfg.Scratch, root)
	st.NnzOut = len(y.Ind)
	if cfg.Sim != nil {
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:         "spmspv-output",
			Items:        int64(len(y.Ind)),
			CPUPerItem:   costOutputCPU,
			BytesPerItem: costOutputBytes,
		})
		if cfg.Phased {
			cfg.Sim.EndPhase()
		}
	}
	return y, st
}

// rowMergeThreads caps the merge parallelism (the merge is a reduction tree;
// model it as using at most 2 threads' worth of parallelism).
func rowMergeThreads(threads int) int {
	if threads > 2 {
		return 2
	}
	return threads
}
