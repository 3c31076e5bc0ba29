package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Fused kernels for the nonblocking execution layer (see fusionplan.go for
// the recipes). Each kernel executes a whole fused region: one trace span
// tagged with the recipe, one coforall spawn/barrier, one gather/scatter plan
// — where the eager chain pays one of each per op. Results are bitwise
// identical to running the chain eagerly; the modeled clock is where the win
// shows up (fewer collectives and barriers per region), plus the real-CPU win
// of never building the intermediate vectors.
//
// Scratch discipline matches the eager kernels: local products come from and
// return to the runtime's ScratchPool, and outputs reuse the capacity of the
// destination's local blocks, so steady-state calls on a stable problem size
// allocate nothing on the shared-memory paths.

// fusedInstall models writing a surviving element straight into the
// destination vector during denseToSparse — the replacement for the eager
// chain's separate Assign2 domain+array rebuild (no atomics: the region owns
// the destination).
const (
	costFusedInstallCPU   = 65.0 // assign2 array copy + output-domain append
	costFusedInstallBytes = 32.0
)

// FusedApplyEWiseMult executes Apply(x, op) ; z = EWiseMult(x, y, pred) as
// one region (RecipeApplyEWiseMult): the unary op is applied during the
// predicate scan, so x is traversed once and the eager chain's second
// spawn/barrier disappears. x is still updated in place (Apply's semantics);
// z receives the surviving (index, op(value)) pairs.
func FusedApplyEWiseMult[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], op semiring.UnaryOp[T], y *dist.DenseVec[T], pred semiring.Pred[T], z *dist.SpVec[T]) error {
	defer rt.Span("FusedApplyEWiseMult", trace.T("recipe", RecipeApplyEWiseMult.String())).End()
	if x.N != y.N || z.N != x.N {
		return fmt.Errorf("core: FusedApplyEWiseMult: capacity mismatch %d vs %d into %d", x.N, y.N, z.N)
	}
	rt.S.CoforallSpawn()
	for l := 0; l < rt.G.P; l++ {
		lx := x.Loc[l]
		ly := y.Loc[l]
		base := y.Bounds[l]
		nnz := lx.NNZ()

		keepPos := sparse.GetSlice[int32](rt.Scratch, nnz)
		kept := 0
		if rt.RealWorkers <= 1 {
			for k := 0; k < nnz; k++ {
				v := op(lx.Val[k])
				lx.Val[k] = v
				if pred(v, ly[lx.Ind[k]-base]) {
					keepPos[kept] = int32(k)
					kept++
				}
			}
		} else {
			kept = fusedApplyScanPar(rt, lx, ly, base, op, pred, keepPos)
		}
		keepPos = keepPos[:kept]
		if rt.RealWorkers > 1 {
			sparse.RadixSortInts32(keepPos) // concurrent compaction scrambles the order
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

		// Model: one fused scan (apply + predicate per element) and the
		// output construction; the separate apply2 pass is gone.
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:           "fused-apply-ewisemult",
			Items:          int64(nnz),
			CPUPerItem:     costApplyCPU + costEWiseCPU,
			BytesPerItem:   costApplyBytes + costEWiseBytes,
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

// fusedApplyScanPar is the worker-pool variant of the fused apply+predicate
// scan, kept off the sequential path so single-worker calls allocate nothing.
func fusedApplyScanPar[T semiring.Number](rt *locale.Runtime, lx *sparse.Vec[T], ly []T, base int, op semiring.UnaryOp[T], pred semiring.Pred[T], keepPos []int32) int {
	// Two passes: apply in place first, then reuse the existing atomic
	// compaction. The extra pass only exists on the multi-worker path; the
	// compaction order (and hence the sorted survivor set) matches eager.
	rt.ParFor(lx.NNZ(), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			lx.Val[k] = op(lx.Val[k])
		}
	})
	return ewiseScanPar(rt, lx, ly, base, pred, keepPos)
}

// fusedMaskBroadcast replicates the mask segments down the grid columns —
// SpMSpVDistMasked's step 0 (one tree broadcast per column team, charged only
// when the column team spans more than one locale). The segments are arena
// scratch: whoever filters with them hands them back with putBandMask.
func fusedMaskBroadcast(rt *locale.Runtime, colBands []int, mask *dist.DenseVec[int64]) [][]int64 {
	g := rt.G
	bandMask := make([][]int64, g.Pc)
	for c := 0; c < g.Pc; c++ {
		lo, hi := colBands[c], colBands[c+1]
		seg := sparse.GetSlice[int64](rt.Scratch, hi-lo)
		for l := 0; l < g.P; l++ {
			// The piece of the band that locale l's block of the mask holds.
			if from, to := max(lo, mask.Bounds[l]), min(hi, mask.Bounds[l+1]); from < to {
				copy(seg[from-lo:], mask.Loc[l][from-mask.Bounds[l]:to-mask.Bounds[l]])
			}
		}
		bandMask[c] = seg
		if g.Pr > 1 {
			per := rt.S.BulkTime(int64(len(seg)), false) * logDepth(g.Pr)
			for _, l := range g.ColLocales(c) {
				rt.S.Advance(l, per)
			}
		}
	}
	return bandMask
}

// putBandMask returns fusedMaskBroadcast's segments to the arena.
func putBandMask(rt *locale.Runtime, bandMask [][]int64) {
	for _, seg := range bandMask {
		sparse.PutSlice(rt.Scratch, seg)
	}
}

// fusedGatherBulk is gatherFine with the bulk collective's charging: one
// α+βn payload per (src, dst) team pair plus a per-destination sorted merge,
// exactly as comm.SparseRowAllGather prices it. The gathered data is
// identical (team order concatenates disjoint ascending ranges), so the
// downstream multiply is bitwise unchanged — only the modeled clock differs.
func fusedGatherBulk[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], st *DistStats) []*sparse.Vec[T] {
	g := rt.G
	lxs := make([]*sparse.Vec[T], g.P)
	for l := 0; l < g.P; l++ {
		r, _ := g.Coords(l)
		team := g.RowLocales(r)
		lxs[l] = rowBandInput(a, x, r, team)
		st.GatheredElems += int64(lxs[l].NNZ())
		for _, src := range team {
			// Empty sources send nothing.
			if n := x.Loc[src].NNZ(); n > 0 && src != l {
				rt.S.Bulk(l, sparsePayloadBytes(n), g.SameNode(src, l))
			}
		}
		rt.S.Compute(l, 1, sim.Kernel{
			Name:       "sparse-allgather-merge",
			Items:      int64(lxs[l].NNZ()),
			CPUPerItem: estSparseMergeCPU,
		})
	}
	return lxs
}

// fusedLocalMultiply runs the per-block shared-memory SpMSpV on every locale
// and rewrites the discovered row ids to global vertex ids. When bandMask is
// non-nil the replicated mask segment filters the local product before the
// scatter (and is recycled afterwards): an entry at band-local position lj survives when
// (seg[lj] != 0) == keepNonzero. The mask is position-only, so filtering
// before the first-wins scatter claims exactly the positions the eager
// multiply-then-filter chain keeps, with the same winning values.
func fusedLocalMultiply[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], lxs []*sparse.Vec[T], bandMask [][]int64, keepNonzero bool, st *DistStats) []*sparse.Vec[int64] {
	g := rt.G
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
		if bandMask == nil {
			for k := range ly.Val {
				ly.Val[k] += rowBase
			}
			lys[l] = ly
		} else {
			seg := bandMask[c]
			candidates := ly.NNZ()
			filtered := sparse.GetVec[int64](rt.Scratch, ly.N) // recycled by the scatter
			for k, lj := range ly.Ind {
				if (seg[lj] != 0) != keepNonzero {
					continue
				}
				filtered.Ind = append(filtered.Ind, lj)
				filtered.Val = append(filtered.Val, ly.Val[k]+rowBase)
			}
			sparse.PutVec(rt.Scratch, ly)
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:         "spmspv-mask-filter",
				Items:        int64(candidates),
				CPUPerItem:   6,
				BytesPerItem: 9,
			})
			lys[l] = filtered
		}
		st.LocalEntries += shmStats.EntriesVisited
	}
	putBandMask(rt, bandMask)
	return lys
}

// fusedScatterBulk is scatterFine with the bulk collective's charging: each
// source's sorted output run splits into per-owner segments, one α+βn payload
// per remote (src, owner) segment plus a per-owner merge, exactly as
// comm.ColMergeScatter prices it. The bitmap mutation is identical to
// scatterFine (first-wins in locale order), so results are bitwise unchanged.
func fusedScatterBulk[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], lys []*sparse.Vec[int64], isthere []bool, value []int64, st *DistStats) int {
	g := rt.G
	n := a.NCols
	claimed := 0
	received := make([]int64, g.P)
	for l := 0; l < g.P; l++ {
		_, c := g.Coords(l)
		colBase := a.ColBands[c]
		ly := lys[l]
		segOwner, segLen := -1, 0
		flush := func() {
			if segOwner >= 0 && segOwner != l && segLen > 0 {
				rt.S.Bulk(segOwner, sparsePayloadBytes(segLen), g.SameNode(l, segOwner))
				received[segOwner] += int64(segLen)
			}
			segLen = 0
		}
		for k, lj := range ly.Ind {
			gj := colBase + lj
			if !isthere[gj] {
				isthere[gj] = true
				value[gj] = ly.Val[k]
				claimed++
			}
			if owner := locale.OwnerOf(n, g.P, gj); owner != segOwner {
				flush()
				segOwner = owner
			}
			segLen++
		}
		flush()
		st.ScatteredMsgs += int64(ly.NNZ())
		sparse.PutVec(rt.Scratch, ly)
		lys[l] = nil
	}
	for l := 0; l < g.P; l++ {
		if received[l] > 0 {
			rt.S.Compute(l, 1, sim.Kernel{
				Name:       "colmerge-scatter-merge",
				Items:      received[l],
				CPUPerItem: estSparseMergeCPU,
			})
		}
	}
	return claimed
}

// fusedCommChoice consults the runtime's inspector for the gather/scatter
// shape of one fused SpMSpV region. A nil inspector keeps the fine-grained
// charging, preserving every pre-inspector trace and modeled time. The
// returned span (nil without an inspector) is the strategy-tagged dispatch
// record; End is nil-safe.
func fusedCommChoice[T semiring.Number](rt *locale.Runtime, op string, a *dist.Mat[T], x *dist.SpVec[T]) (inspect.Comm, SpMSpVCommCosts, *trace.Span) {
	in := rt.Insp
	if in == nil {
		return inspect.CommFine, SpMSpVCommCosts{}, nil
	}
	if rt.Fault != nil {
		in.Note(op, inspect.AxisComm, "fine", inspect.ReasonFaultPlan)
		return inspect.CommFine, SpMSpVCommCosts{}, dispatchSpan(rt, in)
	}
	if rt.G.P == 1 {
		in.Note(op, inspect.AxisComm, "fine", inspect.ReasonSingleLocale)
		return inspect.CommFine, SpMSpVCommCosts{}, dispatchSpan(rt, in)
	}
	e := EstimateSpMSpVComm(rt, a, x)
	choice := in.DecideComm(op, e.Fine, e.Bulk, ReasonSparseFrontier, ReasonDenseFrontier)
	return choice, e, dispatchSpan(rt, in)
}

// FusedBFSRound executes one whole BFS round as a single region
// (RecipeSpMSpVFrontier): the masked SpMSpV push step, the level/parent
// updates, the visited-mask update, and the next-frontier construction — all
// between one spawn and one barrier, with one gather/scatter plan. The eager
// round pays three regions (SpMSpV(+mask), EWiseMult, Assign), each with its
// own spawn/barrier, and materializes two intermediate vectors this kernel
// never builds.
//
// mask is the dense visited bookkeeping vector: an output position survives
// when (mask[j] != 0) == keepNonzero (keepNonzero=true for BFSDist's
// notVisited vector, false for BFSDistMasked's visited vector). Survivors
// have levels[j] and parents[j] set, their mask slot flipped, and become the
// next frontier, written into frontier in place (the gather has copied the
// current frontier before the rewrite). Because the mask depends only on
// position, filtering before the first-wins scatter is exact.
//
// Returns the size of the new frontier; when it is zero no state is mutated
// (the eager loop breaks before its updates in that case).
func FusedBFSRound[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], frontier *dist.SpVec[T], mask *dist.DenseVec[int64], keepNonzero bool, level int64, levels, parents []int64) (int, DistStats) {
	defer rt.Span("FusedBFSRound",
		trace.T("recipe", RecipeSpMSpVFrontier.String()),
		trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	choice, est, dsp := fusedCommChoice(rt, "FusedBFSRound", a, frontier)
	defer dsp.End()
	rt.S.CoforallSpawn()

	rt.S.BeginPhase("Mask Broadcast")
	bandMask := fusedMaskBroadcast(rt, a.ColBands, mask)

	rt.S.BeginPhase("Gather Input")
	var lxs []*sparse.Vec[T]
	if choice == inspect.CommBulk {
		lxs = fusedGatherBulk(rt, a, frontier, &st)
	} else {
		lxs = gatherFine(rt, a, frontier, &st)
	}

	rt.S.BeginPhase("Local Multiply")
	lys := fusedLocalMultiply(rt, a, lxs, bandMask, keepNonzero, &st)

	rt.S.BeginPhase("Scatter Output")
	spa := sparse.GetBucketSPA[int64](rt.Scratch, n, 1, 1)
	defer sparse.PutBucketSPA(rt.Scratch, spa)
	value, isthere := spa.Dense()
	var claimed int
	if choice == inspect.CommBulk {
		claimed = fusedScatterBulk(rt, a, lys, isthere, value, &st)
	} else {
		claimed = scatterFine(rt, a, lys, isthere, value, &st)
	}
	est.observe(rt.Insp, choice, st)
	if claimed == 0 {
		rt.S.EndPhase()
		rt.S.Barrier()
		return 0, st
	}

	// denseToSparse fused with the frontier update: each locale scans its
	// owned range once, setting level/parent/mask and installing the survivor
	// directly as the next frontier — the eager chain's separate EWiseMult
	// scan and Assign rebuild collapse into this pass.
	rt.S.BeginPhase("Frontier Update")
	bounds := frontier.Bounds
	newMask := int64(0)
	if !keepNonzero {
		newMask = 1
	}
	for l := 0; l < g.P; l++ {
		lv := frontier.Loc[l]
		lv.Ind = lv.Ind[:0]
		lv.Val = lv.Val[:0]
		seg := mask.Loc[l]
		mbase := mask.Bounds[l]
		installed := 0
		for gj := bounds[l]; gj < bounds[l+1]; gj++ {
			if !isthere[gj] {
				continue
			}
			isthere[gj] = false
			levels[gj] = level
			parents[gj] = value[gj]
			seg[gj-mbase] = newMask
			lv.Ind = append(lv.Ind, gj)
			lv.Val = append(lv.Val, T(1))
			installed++
		}
		st.NnzOut += installed
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-densetosparse",
			Items:        int64(bounds[l+1] - bounds[l]),
			CPUPerItem:   costScanCPU,
			BytesPerItem: 1,
		})
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "fused-install",
			Items:        int64(installed),
			CPUPerItem:   costFusedInstallCPU,
			BytesPerItem: costFusedInstallBytes,
		})
	}
	rt.S.EndPhase()
	rt.S.Barrier()
	return claimed, st
}

// FusedSpMSpVMaskedAssign executes y = SpMSpVMasked(A, x, mask) ; Assign(dst, y)
// as one region (RecipeSpMSpVMaskedAssign): the denseToSparse step writes the
// survivors straight into dst's local blocks (reusing their capacity), so y
// is never materialized and the Assign's spawn/barrier and domain rebuild are
// gone. dst must be block-distributed over the column space like the eager
// product would be; dst == x is safe (the gather copies x first).
func FusedSpMSpVMaskedAssign[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], mask *dist.DenseVec[int64], dst *dist.SpVec[int64]) DistStats {
	defer rt.Span("FusedSpMSpVMaskedAssign",
		trace.T("recipe", RecipeSpMSpVMaskedAssign.String()),
		trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	choice, est, dsp := fusedCommChoice(rt, "FusedSpMSpVMaskedAssign", a, x)
	defer dsp.End()
	rt.S.CoforallSpawn()

	rt.S.BeginPhase("Mask Broadcast")
	bandMask := fusedMaskBroadcast(rt, a.ColBands, mask)

	rt.S.BeginPhase("Gather Input")
	var lxs []*sparse.Vec[T]
	if choice == inspect.CommBulk {
		lxs = fusedGatherBulk(rt, a, x, &st)
	} else {
		lxs = gatherFine(rt, a, x, &st)
	}

	rt.S.BeginPhase("Local Multiply")
	// Complemented mask semantics, as in SpMSpVDistMasked: mask != 0 suppresses.
	lys := fusedLocalMultiply(rt, a, lxs, bandMask, false, &st)

	rt.S.BeginPhase("Scatter Output")
	spa := sparse.GetBucketSPA[int64](rt.Scratch, n, 1, 1)
	defer sparse.PutBucketSPA(rt.Scratch, spa)
	value, isthere := spa.Dense()
	if choice == inspect.CommBulk {
		fusedScatterBulk(rt, a, lys, isthere, value, &st)
	} else {
		scatterFine(rt, a, lys, isthere, value, &st)
	}
	est.observe(rt.Insp, choice, st)

	bounds := locale.BlockBounds(n, g.P)
	for l := 0; l < g.P; l++ {
		ld := dst.Loc[l]
		ld.Ind = ld.Ind[:0]
		ld.Val = ld.Val[:0]
		installed := 0
		for gj := bounds[l]; gj < bounds[l+1]; gj++ {
			if !isthere[gj] {
				continue
			}
			isthere[gj] = false
			ld.Ind = append(ld.Ind, gj)
			ld.Val = append(ld.Val, value[gj])
			installed++
		}
		st.NnzOut += installed
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-densetosparse",
			Items:        int64(bounds[l+1] - bounds[l]),
			CPUPerItem:   costScanCPU,
			BytesPerItem: 1,
		})
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "fused-install",
			Items:        int64(installed),
			CPUPerItem:   costFusedInstallCPU,
			BytesPerItem: costFusedInstallBytes,
		})
	}
	rt.S.EndPhase()
	rt.S.Barrier()
	return st
}

// FusedSpMSpVFilterAssign executes the generic three-op chain
// y = SpMSpV(A, x) ; f = EWiseMult(y, mask, pred) ; Assign(dst, f) as one
// region (RecipeSpMSpVFrontier through the public gb surface). Unlike the
// BFS-specialized FusedBFSRound, pred may depend on the VALUE of y, and
// value-dependent filters do not commute with the first-wins scatter — so
// this kernel keeps the eager chain's full scatter and applies pred during
// denseToSparse, on exactly the claimed (position, winning value) pairs the
// eager EWiseMult would see. Survivors install straight into dst; the two
// intermediates are never built.
func FusedSpMSpVFilterAssign[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], mask *dist.DenseVec[int64], pred semiring.Pred[int64], dst *dist.SpVec[int64]) DistStats {
	defer rt.Span("FusedSpMSpVFilterAssign",
		trace.T("recipe", RecipeSpMSpVFrontier.String()),
		trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	choice, est, dsp := fusedCommChoice(rt, "FusedSpMSpVFilterAssign", a, x)
	defer dsp.End()
	rt.S.CoforallSpawn()

	rt.S.BeginPhase("Gather Input")
	var lxs []*sparse.Vec[T]
	if choice == inspect.CommBulk {
		lxs = fusedGatherBulk(rt, a, x, &st)
	} else {
		lxs = gatherFine(rt, a, x, &st)
	}

	rt.S.BeginPhase("Local Multiply")
	lys := fusedLocalMultiply(rt, a, lxs, nil, false, &st)

	rt.S.BeginPhase("Scatter Output")
	spa := sparse.GetBucketSPA[int64](rt.Scratch, n, 1, 1)
	defer sparse.PutBucketSPA(rt.Scratch, spa)
	value, isthere := spa.Dense()
	if choice == inspect.CommBulk {
		fusedScatterBulk(rt, a, lys, isthere, value, &st)
	} else {
		scatterFine(rt, a, lys, isthere, value, &st)
	}
	est.observe(rt.Insp, choice, st)

	bounds := locale.BlockBounds(n, g.P)
	for l := 0; l < g.P; l++ {
		ld := dst.Loc[l]
		ld.Ind = ld.Ind[:0]
		ld.Val = ld.Val[:0]
		lm := mask.Loc[l]
		mbase := mask.Bounds[l]
		candidates := 0
		installed := 0
		for gj := bounds[l]; gj < bounds[l+1]; gj++ {
			if !isthere[gj] {
				continue
			}
			isthere[gj] = false
			candidates++
			if !pred(value[gj], lm[gj-mbase]) {
				continue
			}
			ld.Ind = append(ld.Ind, gj)
			ld.Val = append(ld.Val, value[gj])
			installed++
		}
		st.NnzOut += installed
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-densetosparse",
			Items:        int64(bounds[l+1] - bounds[l]),
			CPUPerItem:   costScanCPU,
			BytesPerItem: 1,
		})
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:           "ewisemult-scan",
			Items:          int64(candidates),
			CPUPerItem:     costEWiseCPU,
			BytesPerItem:   costEWiseBytes,
			AtomicsPerItem: costEWiseAtomics,
		})
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "fused-install",
			Items:        int64(installed),
			CPUPerItem:   costFusedInstallCPU,
			BytesPerItem: costFusedInstallBytes,
		})
	}
	rt.S.EndPhase()
	rt.S.Barrier()
	return st
}

// FusedSpMVUpdate executes a distributed SpMV fused with the per-element
// update that consumes it (RecipeSpMVUpdate): instead of materializing the
// result vector and walking it in a second coforall, update(l, gi, v) is
// invoked for every global index gi owned by locale l, with v the reduced
// product value — in exactly the order the eager path builds and then reads
// the vector (locale-major, gi ascending), so value-order-sensitive updates
// (float accumulation, min races) stay bitwise identical. The region saves
// one spawn/barrier per call and never builds y: the reduced product lives in
// arena loans that go back when the call returns, and update is handed its
// values one by one, never the buffer, so nothing it keeps can alias a loan.
//
// update may overwrite x — SSSPDist and CCDist write their next changed set
// there: spmvStages has released its gathered copy (in.release) before it emits.
//
// Collective errors surface before any update runs, so callers' restore /
// resume recovery closures behave as with the eager SpMVDist.
func FusedSpMVUpdate[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.DenseVec[T], sr semiring.Semiring[T], update func(l, gi int, v T)) error {
	defer rt.Span("FusedSpMVUpdate", trace.T("recipe", RecipeSpMVUpdate.String())).End()
	if x.N != a.NRows {
		return fmt.Errorf("core: FusedSpMVUpdate: x has %d entries for %d rows", x.N, a.NRows)
	}
	return spmvStages(rt, a, x, sr, "FusedSpMVUpdate", locale.BlockBounds(a.NCols, rt.G.P), func(l, lo int, src []T) {
		for i, v := range src {
			update(l, lo+i, v)
		}
	})
}

// FusedPushStepShm is the shared-memory analogue of FusedBFSRound: the masked
// SpMSpV push step plus the level/parent/visited updates and the next-frontier
// construction, fused into one pass over the product. The new frontier is
// written into frontier in place (the multiply has consumed it already);
// steady-state calls allocate nothing — the product comes from and returns to
// cfg.Scratch, and the frontier reuses its own capacity.
//
// Returns the new frontier size; on 0 the caller's loop terminates exactly as
// the eager round would (the visited array makes the updates idempotent-free:
// an empty masked product mutates nothing here either).
func FusedPushStepShm[T semiring.Number](a *sparse.CSR[T], frontier *sparse.Vec[T], visited *sparse.Dense[int64], level int64, levels, parents []int64, cfg ShmConfig) (int, ShmStats) {
	var sp *trace.Span
	if cfg.Trace != nil {
		sp = cfg.Trace.Begin("FusedPushStep",
			trace.T("recipe", RecipeSpMSpVFrontier.String()),
			trace.T("engine", cfg.resolveEngine().String()))
	}
	y, st := SpMSpVShm(a, frontier, cfg)
	frontier.Ind = frontier.Ind[:0]
	frontier.Val = frontier.Val[:0]
	for k, i := range y.Ind {
		if visited.Data[i] != 0 {
			continue
		}
		levels[i] = level
		parents[i] = y.Val[k]
		visited.Data[i] = 1
		frontier.Ind = append(frontier.Ind, i)
		frontier.Val = append(frontier.Val, T(1))
	}
	sparse.PutVec(cfg.Scratch, y)
	st.NnzOut = frontier.NNZ()
	sp.End()
	return frontier.NNZ(), st
}
