package core

import (
	"sync/atomic"

	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// SpMSpVBucket is the third shared-memory SpMSpV engine: the sort-free
// bucketed pipeline validated in CombBLAS 2.0. The output column space is
// partitioned into contiguous bucket ranges; each worker scatters the entries
// it visits into private per-bucket runs (no atomic isthere probe, no global
// fetch-and-add cursor), each bucket is then claimed and accumulated
// independently — first append wins, exactly the paper's "only keeping the
// first index" — and finally emitted by scanning its range in ascending
// order. Concatenating the buckets yields the sorted output with no sorting
// step at all, replacing SPA → Sort → Output with
// Bucket-scatter → per-bucket merge → concat.
//
// Unlike SpMSpVShm with Workers > 1, the result is deterministic for any
// worker count: workers own contiguous ascending chunks of x, so the winning
// entry for every column is the globally first one in x order — byte-
// identical to the merge-sort engine run with Workers == 1.
//
// When cfg.Phased is set the phases are recorded as "Bucket Scatter",
// "Bucket Merge" and "Output" (the bucket analogue of Fig 7's breakdown).
//
// With cfg.Scratch set, steady-state calls are allocation-free: the bucket
// SPA and the output vector's backing arrays are checked out of the arena,
// and with Workers == 1 no goroutine, closure or channel is created.
func SpMSpVBucket[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], cfg ShmConfig) (*sparse.Vec[int64], ShmStats) {
	cfg.Engine = EngineBucket
	return spmspvBucket(a, x, cfg)
}

func spmspvBucket[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], cfg ShmConfig) (*sparse.Vec[int64], ShmStats) {
	var sp *trace.Span
	if cfg.Trace != nil {
		sp = cfg.Trace.Begin("SpMSpVShm", trace.T("engine", "bucket"))
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
	buckets := bucketCount(cfg.Threads, workers, a.NCols)

	// Phase 1: bucket scatter — worker-private runs, no atomics.
	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Bucket Scatter")
	}
	spa := sparse.GetBucketSPA[int64](cfg.Scratch, a.NCols, workers, buckets)
	if workers <= 1 {
		// One worker: append order is merge order, so claim straight into
		// the dense scratch — first writer wins, as the merge would resolve
		// it. No closure either (a closure literal would escape and defeat
		// the zero-allocation guarantee).
		val, there := spa.Dense()
		var seen int64
		for k := 0; k < nnzX; k++ {
			rid := x.Ind[k]
			if rid < 0 || rid >= a.NRows {
				continue
			}
			cols, _ := a.Row(rid)
			seen += int64(len(cols))
			for _, colid := range cols {
				if !there[colid] {
					there[colid] = true
					val[colid] = int64(rid)
				}
			}
		}
		st.EntriesVisited = seen
	} else {
		st.EntriesVisited = bucketScatterPar(a, x, spa, cfg.Pool, workers, nnzX)
	}
	st.RowsSelected = nnzX
	if cfg.Sim != nil {
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:         "spmspv-bucket-scatter",
			Items:        st.EntriesVisited,
			CPUPerItem:   costSpaCPU,
			BytesPerItem: costBucketScatterBytes,
			// No atomic term: runs are worker-private.
		})
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:       "spmspv-spa-rows",
			Items:      int64(nnzX),
			CPUPerItem: costSpaPerRow,
		})
	}

	// Phase 2: per-bucket merge + ordered emission (replaces the sort).
	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Bucket Merge")
	}
	y := sparse.GetVec[int64](cfg.Scratch, a.NCols)
	var mst sparse.BucketMergeStats
	if workers <= 1 {
		y.Ind, y.Val, mst = spa.EmitDense(st.EntriesVisited, y.Ind, y.Val)
	} else {
		y.Ind, y.Val, mst = spa.MergeInto(nil, cfg.Pool, workers, y.Ind, y.Val)
	}
	sparse.PutBucketSPA(cfg.Scratch, spa)
	chargeBucketMerge(cfg, mst)

	// Phase 3: output vector (same yDom build cost as the other engines).
	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Output")
	}
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

// bucketScatterPar runs the first-wins bucket scatter on the worker pool.
// The chunk index doubles as the run owner, reproducing the historical
// one-goroutine-per-worker partition exactly, so the merge resolves the same
// winners. Only reached when workers > 1.
func bucketScatterPar[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], spa *sparse.BucketSPA[int64], wp *workpool.Pool, workers, nnzX int) int64 {
	var visited atomic.Int64
	wp.ParForChunk(workers, nnzX, func(w, lo, hi int) {
		var seen int64
		for k := lo; k < hi; k++ {
			rid := x.Ind[k]
			if rid < 0 || rid >= a.NRows {
				continue
			}
			cols, _ := a.Row(rid)
			seen += int64(len(cols))
			for _, colid := range cols {
				spa.Append(w, colid, int64(rid))
			}
		}
		visited.Add(seen)
	})
	return visited.Load()
}

// spmspvBucketSemiring is the general-semiring bucket engine: entries carry
// x[i] ⊗ A[i,j] products and the bucket merge accumulates duplicates with the
// additive monoid instead of first-wins claiming. Deterministic for
// commutative, associative monoids regardless of worker count.
func spmspvBucketSemiring[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], sr semiring.Semiring[T], cfg ShmConfig) (*sparse.Vec[T], ShmStats) {
	var sp *trace.Span
	if cfg.Trace != nil {
		sp = cfg.Trace.Begin("SpMSpVShmSemiring", trace.T("engine", "bucket"))
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
	buckets := bucketCount(cfg.Threads, workers, a.NCols)

	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Bucket Scatter")
	}
	spa := sparse.GetBucketSPA[T](cfg.Scratch, a.NCols, workers, buckets)
	if workers <= 1 {
		// One worker: accumulate in append order straight into the dense
		// scratch, as in spmspvBucket.
		rk := newRowKernel(sr)
		val, there := spa.Dense()
		var seen int64
		for k := 0; k < nnzX; k++ {
			rid := x.Ind[k]
			if rid < 0 || rid >= a.NRows {
				continue
			}
			cols, vals := a.Row(rid)
			seen += int64(len(cols))
			rk.spaRow(val, there, cols, vals, x.Val[k], nil)
		}
		st.EntriesVisited = seen
	} else {
		st.EntriesVisited = bucketScatterParSr(a, x, sr, spa, cfg.Pool, workers, nnzX)
	}
	st.RowsSelected = nnzX
	if cfg.Sim != nil {
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:         "spmspv-bucket-scatter",
			Items:        st.EntriesVisited,
			CPUPerItem:   costSpaCPU,
			BytesPerItem: costBucketScatterBytes,
		})
		cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
			Name:       "spmspv-spa-rows",
			Items:      int64(nnzX),
			CPUPerItem: costSpaPerRow,
		})
	}

	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Bucket Merge")
	}
	y := sparse.GetVec[T](cfg.Scratch, a.NCols)
	var mst sparse.BucketMergeStats
	if workers <= 1 {
		y.Ind, y.Val, mst = spa.EmitDense(st.EntriesVisited, y.Ind, y.Val)
	} else {
		y.Ind, y.Val, mst = spa.MergeInto(sr.Add.Op, cfg.Pool, workers, y.Ind, y.Val)
	}
	sparse.PutBucketSPA(cfg.Scratch, spa)
	chargeBucketMerge(cfg, mst)

	if cfg.Sim != nil && cfg.Phased {
		cfg.Sim.BeginPhase("Output")
	}
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

// bucketScatterParSr is bucketScatterPar for the general-semiring engine.
func bucketScatterParSr[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], sr semiring.Semiring[T], spa *sparse.BucketSPA[T], wp *workpool.Pool, workers, nnzX int) int64 {
	var visited atomic.Int64
	wp.ParForChunk(workers, nnzX, func(w, lo, hi int) {
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
				spa.Append(w, colid, sr.Mul(xv, vals[c]))
			}
		}
		visited.Add(seen)
	})
	return visited.Load()
}

// chargeBucketMerge charges the per-bucket merge and the ordered range-scan
// emission. Buckets are independent, so both parallelize across the full
// thread count (bucketCount guarantees buckets >= threads when the domain
// allows it); there is no serial merge chain and no serialized atomic term.
func chargeBucketMerge(cfg ShmConfig, mst sparse.BucketMergeStats) {
	if cfg.Sim == nil {
		return
	}
	cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
		Name:         "spmspv-bucket-merge",
		Items:        mst.Entries,
		CPUPerItem:   costBucketMergeCPU,
		BytesPerItem: costBucketMergeBytes,
	})
	cfg.Sim.Compute(cfg.Loc, cfg.Threads, sim.Kernel{
		Name:         "spmspv-bucket-emit",
		Items:        mst.Scanned,
		CPUPerItem:   costBucketEmitCPU,
		BytesPerItem: 1,
	})
}

// bucketCount picks the bucket-range count: enough for every modeled thread
// and every real worker to own distinct ranges, capped by the domain size.
func bucketCount(threads, workers, n int) int {
	b := threads
	if workers > b {
		b = workers
	}
	if b > n && n > 0 {
		b = n
	}
	if b < 1 {
		b = 1
	}
	return b
}
