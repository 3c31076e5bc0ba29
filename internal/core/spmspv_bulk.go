package core

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// SpMSpVDistBulk is the communication-avoiding variant of the distributed
// SpMSpV the paper's discussion recommends ("We can mitigate this effect by
// using bulk-synchronous execution and batched communication"). It keeps the
// gather / local multiply / scatter structure of SpMSpVDist but routes both
// communication steps through the bulk collectives of internal/comm:
//
//   - Gather: comm.SparseRowAllGather — one α+βn message per (src, dst) pair
//     of each processor-row team (O(P) messages instead of O(nnz) fine-grained
//     α-charges), with the sorted per-source runs k-way merged on arrival.
//   - Scatter: comm.ColMergeScatter — each locale splits its sorted output run
//     into owner segments and sends each as one bulk message; the destination
//     merges the segments in source order, which replaces the global atomic
//     isthere bitmap (and its trailing denseToSparse scan) with a
//     destination-owned merge producing the sparse result directly.
//
// The local multiply picks its engine from rt.ShmEngine (see core.Engine), so
// the sort-free bucket engine composes with the bulk communication. The
// result is bitwise identical to SpMSpVDist; retry and fault costs flow
// through the collectives' retryExtra path, so a fault plan slows the modeled
// clock without changing the output, and a crashed locale or exhausted retry
// budget surfaces as an error.
func SpMSpVDistBulk[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T]) (*dist.SpVec[int64], DistStats, error) {
	defer rt.Span("SpMSpVDistBulk", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	rt.S.CoforallSpawn()

	// Step 1: gather x along the processor rows with the bulk collective.
	rt.S.BeginPhase("Gather Input")
	srcInds := make([][]int, g.P)
	srcVals := make([][]T, g.P)
	for l := 0; l < g.P; l++ {
		srcInds[l] = x.Loc[l].Ind
		srcVals[l] = x.Loc[l].Val
	}
	gInds, gVals, err := comm.SparseRowAllGather(rt, srcInds, srcVals)
	if err != nil {
		return nil, st, err
	}
	lxs := make([]*sparse.Vec[T], g.P)
	for l := 0; l < g.P; l++ {
		r, _ := g.Coords(l)
		rowBase := a.RowBands[r]
		lx := sparse.GetVec[T](rt.Scratch, a.RowBands[r+1]-rowBase) // multiplyBlocks puts it back
		for _, gi := range gInds[l] {
			lx.Ind = append(lx.Ind, gi-rowBase) // global row ids → block-local
		}
		lx.Val = append(lx.Val, gVals[l]...)
		lxs[l] = lx
		st.GatheredElems += int64(lx.NNZ())
	}

	// Step 2: local multiply, with the engine the runtime selects.
	rt.S.BeginPhase("Local Multiply")
	lys := multiplyBlocks(rt, a, lxs, nil, &st)

	// Step 3: scatter through the destination-owned merge collective. It
	// hands an owner reached by one segment that segment itself, so the runs
	// are fresh copies and the local products go back to the arena.
	rt.S.BeginPhase("Scatter Output")
	outInds := make([][]int, g.P)
	outVals := make([][]int64, g.P)
	for l, ly := range lys {
		_, c := g.Coords(l)
		gi := make([]int, len(ly.Ind))
		for k, lj := range ly.Ind {
			gi[k] = a.ColBands[c] + lj // block-local column ids → global, still sorted
		}
		outInds[l], outVals[l] = gi, slices.Clone(ly.Val)
		st.ScatteredMsgs += int64(ly.NNZ())
	}
	mInds, mVals, err := comm.ColMergeScatter[int64](rt, n, outInds, outVals, nil)
	if err != nil {
		return nil, st, err
	}
	for _, ly := range lys {
		sparse.PutVec(rt.Scratch, ly)
	}
	y := &dist.SpVec[int64]{G: g, N: n, Bounds: locale.BlockBounds(n, g.P), Loc: make([]*sparse.Vec[int64], g.P)}
	for l := 0; l < g.P; l++ {
		y.Loc[l] = &sparse.Vec[int64]{N: n, Ind: mInds[l], Val: mVals[l]}
		st.NnzOut += len(mInds[l])
	}
	rt.S.EndPhase()
	rt.S.Barrier()
	return y, st, nil
}
