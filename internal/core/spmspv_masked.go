package core

import (
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// SpMSpVDistMasked is the distributed SpMSpV with a complemented output mask
// — the GraphBLAS concept the paper singles out as future work ("efficient
// implementations of novel concepts in GraphBLAS, such as masks, have not
// been attempted in distributed memory before").
//
// mask is a dense 0/1 vector over the column space, distributed like the
// output: positions with mask != 0 are suppressed (the complemented mask of
// BFS, where the mask holds the visited flags). The mask segment of each
// column band is first replicated down the grid columns (one bulk broadcast
// per column team), so every locale filters its local output BEFORE the
// scatter — the suppressed elements never cross the network, which is the
// whole point of a fused mask versus multiplying first and filtering after.
func SpMSpVDistMasked[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], mask *dist.DenseVec[int64]) (*dist.SpVec[int64], DistStats) {
	defer rt.Span("SpMSpVDistMasked", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	rt.S.CoforallSpawn()

	// Step 0: replicate the mask along grid columns — each locale (r, c)
	// needs the mask over its column band [ColBands[c], ColBands[c+1]): one
	// tree broadcast down each column team.
	rt.S.BeginPhase("Mask Broadcast")
	bandMask := fusedMaskBroadcast(rt, a.ColBands, mask)

	// Step 1: gather x along the processor rows (identical to SpMSpVDist).
	rt.S.BeginPhase("Gather Input")
	lxs := gatherFine(rt, a, x, &st)

	// Step 2: local multiply, filtering against the replicated mask segment.
	rt.S.BeginPhase("Local Multiply")
	lys := make([]*sparse.Vec[int64], g.P)
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		ly, shmStats := SpMSpVShm(a.Blocks[l], lxs[l], ShmConfig{
			Threads: rt.Threads,
			Workers: rt.RealWorkers,
			Engine:  Engine(rt.ShmEngine),
			Sim:     rt.S,
			Loc:     l,
			Trace:   rt.Tr,
			Pool:    rt.WP,
			Scratch: rt.Scratch,
		})
		rowBase := int64(a.RowBands[r])
		seg := bandMask[c]
		filtered := sparse.GetVec[int64](rt.Scratch, ly.N) // recycled by the scatter
		for k, lj := range ly.Ind {
			if seg[lj] != 0 {
				continue // suppressed by the complemented mask
			}
			filtered.Ind = append(filtered.Ind, lj)
			filtered.Val = append(filtered.Val, ly.Val[k]+rowBase)
		}
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-mask-filter",
			Items:        int64(ly.NNZ()),
			CPUPerItem:   6,
			BytesPerItem: 9,
		})
		sparse.PutVec(rt.Scratch, ly) // truncates ly: after its count is charged
		lys[l] = filtered
		st.LocalEntries += shmStats.EntriesVisited
	}
	putBandMask(rt, bandMask)

	// Step 3: scatter only the surviving elements.
	rt.S.BeginPhase("Scatter Output")
	spa := sparse.GetBucketSPA[int64](rt.Scratch, n, 1, 1)
	value, isthere := spa.Dense()
	scatterFine(rt, a, lys, isthere, value, &st)
	y := denseToSparse(rt, n, isthere, value, &st)
	sparse.PutBucketSPA(rt.Scratch, spa)
	rt.S.EndPhase()
	rt.S.Barrier()
	return y, st
}
