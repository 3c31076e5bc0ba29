package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
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

// FusedBFSRound executes one whole BFS round as a single region
// (RecipeSpMSpVFrontier): the masked SpMSpV push step, the level/parent
// updates, the visited-mask update, and the next-frontier construction — all
// between one spawn and one barrier, with one gather/scatter plan. The eager
// round pays three regions (SpMSpV(+mask), EWiseMult, Assign), each with its
// own spawn/barrier, and materializes two intermediate vectors this kernel
// never builds.
//
// visited is the dense bookkeeping vector (1 = discovered): an output
// position survives when visited[j] == 0. Survivors have levels[j] and
// parents[j] set, their visited flag set, and become the next frontier,
// written into frontier in place (the gather has copied the current frontier
// before the rewrite). Because the mask depends only on position, filtering
// before the first-wins scatter is exact.
//
// Returns the size of the new frontier; when it is zero no state is mutated
// (the eager loop breaks before its updates in that case), and neither is it
// when a fault-checked collective fails (its error is returned).
func FusedBFSRound[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], frontier *dist.SpVec[T], visited *dist.DenseVec[int64], level int64, levels, parents []int64) (int, DistStats, error) {
	defer rt.Span("FusedBFSRound",
		trace.T("recipe", RecipeSpMSpVFrontier.String()),
		trace.T("engine", Engine(rt.ShmEngine).String())).End()
	var st DistStats
	choice, est, dsp := spmspvCommChoice(rt, "FusedBFSRound", a, frontier)
	defer dsp.End()
	found := 0
	// denseToSparse fused with the frontier update: each locale walks its run
	// once, setting level/parent/mask and installing the survivor directly as
	// the next frontier — the eager chain's separate EWiseMult scan and
	// Assign rebuild collapse into this pass.
	start := func(claimed int) bool {
		if found = claimed; claimed == 0 {
			return false // nothing is mutated: the eager loop breaks before its updates
		}
		rt.S.BeginPhase("Frontier Update")
		return true
	}
	err := spmspvRun(rt, a, frontier, spmspvPlan{comm: choice, mask: visited}, &st, start, func(l int, pos []int, val []int64) {
		lv := frontier.Loc[l]
		lv.Ind = append(lv.Ind[:0], pos...)
		lv.Val = lv.Val[:0]
		seg := visited.Loc[l]
		mbase := visited.Bounds[l]
		for k, gj := range pos {
			levels[gj] = level
			parents[gj] = val[k]
			seg[gj-mbase] = 1
			lv.Val = append(lv.Val, T(1))
		}
		chargeFusedInstall(rt, l, lv.NNZ(), &st)
	})
	if err != nil {
		return 0, st, err
	}
	est.observe(rt.Insp, choice, st)
	return found, st, nil
}

// FusedSpMSpVMaskedAssign executes y = SpMSpVMasked(A, x, mask) ; Assign(dst, y)
// as one region (RecipeSpMSpVMaskedAssign): the denseToSparse step writes the
// survivors straight into dst's local blocks (reusing their capacity), so y
// is never materialized and the Assign's spawn/barrier and domain rebuild are
// gone. dst must be block-distributed over the column space like the eager
// product would be; dst == x is safe (the gather copies x first). A failed
// collective leaves dst untouched and returns its error.
func FusedSpMSpVMaskedAssign[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], mask *dist.DenseVec[int64], dst *dist.SpVec[int64]) (DistStats, error) {
	defer rt.Span("FusedSpMSpVMaskedAssign",
		trace.T("recipe", RecipeSpMSpVMaskedAssign.String()),
		trace.T("engine", Engine(rt.ShmEngine).String())).End()
	var st DistStats
	choice, est, dsp := spmspvCommChoice(rt, "FusedSpMSpVMaskedAssign", a, x)
	defer dsp.End()
	// Complemented mask semantics, as in SpMSpVDistMasked: mask != 0 suppresses.
	err := spmspvRun(rt, a, x, spmspvPlan{comm: choice, mask: mask}, &st, nil, func(l int, pos []int, val []int64) {
		installInto(rt, dst, nil, nil, &st, l, pos, val)
	})
	if err == nil {
		est.observe(rt.Insp, choice, st)
	}
	return st, err
}

// FusedSpMSpVFilterAssign executes the generic three-op chain
// y = SpMSpV(A, x) ; f = EWiseMult(y, mask, pred) ; Assign(dst, f) as one
// region (RecipeSpMSpVFrontier through the public gb surface). Unlike the
// BFS-specialized FusedBFSRound, pred may depend on the VALUE of y, and
// value-dependent filters do not commute with the first-wins scatter — so
// this kernel keeps the eager chain's full scatter and applies pred during
// denseToSparse, on exactly the claimed (position, winning value) pairs the
// eager EWiseMult would see. Survivors install straight into dst; the two
// intermediates are never built. A failed collective leaves dst untouched
// and returns its error.
func FusedSpMSpVFilterAssign[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], mask *dist.DenseVec[int64], pred semiring.Pred[int64], dst *dist.SpVec[int64]) (DistStats, error) {
	defer rt.Span("FusedSpMSpVFilterAssign",
		trace.T("recipe", RecipeSpMSpVFrontier.String()),
		trace.T("engine", Engine(rt.ShmEngine).String())).End()
	var st DistStats
	choice, est, dsp := spmspvCommChoice(rt, "FusedSpMSpVFilterAssign", a, x)
	defer dsp.End()
	err := spmspvRun(rt, a, x, spmspvPlan{comm: choice}, &st, nil, func(l int, pos []int, val []int64) {
		installInto(rt, dst, mask, pred, &st, l, pos, val)
	})
	if err == nil {
		est.observe(rt.Insp, choice, st)
	}
	return st, err
}

// installInto is the assign recipes' sink: locale l installs the (position,
// value) pairs of its run straight into dst's local block, reusing its
// capacity. With a pred, only the pairs for which pred(value, mask[j]) holds
// are installed, and the walk also pays the eager EWiseMult's per-candidate
// charge.
func installInto(rt *locale.Runtime, dst *dist.SpVec[int64], mask *dist.DenseVec[int64], pred semiring.Pred[int64], st *DistStats, l int, pos []int, val []int64) {
	ld := dst.Loc[l]
	ld.Ind = ld.Ind[:0]
	ld.Val = ld.Val[:0]
	for k, gj := range pos {
		if pred != nil && !pred(val[k], mask.Loc[l][gj-mask.Bounds[l]]) {
			continue
		}
		ld.Ind = append(ld.Ind, gj)
		ld.Val = append(ld.Val, val[k])
	}
	if pred != nil {
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:           "ewisemult-scan",
			Items:          int64(len(pos)),
			CPUPerItem:     costEWiseCPU,
			BytesPerItem:   costEWiseBytes,
			AtomicsPerItem: costEWiseAtomics,
		})
	}
	chargeFusedInstall(rt, l, ld.NNZ(), st)
}

// chargeFusedInstall charges locale l's direct install of installed
// survivors into a fused region's destination and counts them as output.
func chargeFusedInstall(rt *locale.Runtime, l, installed int, st *DistStats) {
	st.NnzOut += installed
	rt.S.Compute(l, rt.Threads, sim.Kernel{
		Name:         "fused-install",
		Items:        int64(installed),
		CPUPerItem:   costFusedInstallCPU,
		BytesPerItem: costFusedInstallBytes,
	})
}

// FusedSpMVUpdate executes a distributed SpMV fused with the update that
// consumes it (RecipeSpMVUpdate): instead of materializing the result vector
// and walking it in a second coforall, update(l, lo, vals) is handed the
// reduced product in runs — vals holds the values of global indices [lo,
// lo+len(vals)), all owned by locale l — in exactly the order the eager path
// builds and then reads the vector (locale-major, indices ascending), so
// value-order-sensitive updates (float accumulation, min races) stay bitwise
// identical. The region saves one spawn/barrier per call and never builds y:
// vals is an arena loan, valid only during its call, so update must copy
// what it keeps.
//
// update may overwrite x — SSSPDist and CCDist write their next changed set
// there: spmvStages has released its gathered copy (in.release) before it emits.
//
// Collective errors surface before any update runs, so a caller's recovery
// (the algorithms' round loop) sees the state as the eager SpMVDist leaves it.
func FusedSpMVUpdate[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.DenseVec[T], sr semiring.Semiring[T], update func(l, lo int, vals []T)) error {
	defer rt.Span("FusedSpMVUpdate", trace.T("recipe", RecipeSpMVUpdate.String())).End()
	if x.N != a.NRows {
		return fmt.Errorf("core: FusedSpMVUpdate: x has %d entries for %d rows", x.N, a.NRows)
	}
	return spmvStages(rt, a, x, sr, "FusedSpMVUpdate", locale.BlockBounds(a.NCols, rt.G.P), update)
}

// BFSPullRound executes one bottom-up BFS round on the 2-D block
// distribution — the pull half of the direction-optimizing BFS, the way
// Beamer, Buluç, Asanović and Patterson run it on the same decomposition —
// from the pieces of the distributed SpMV round, between one spawn and one
// barrier:
//
//  1. each locale encodes its slice of the frontier as ids (u where u is in
//     the frontier, MaxValue elsewhere), and the row teams all-gather them;
//  2. the visited flags are copied down the column teams (maskBroadcast);
//  3. each locale scans the unvisited columns of its block, in cols[l] (the
//     block in CSC form), walking rows in ascending order and stopping at
//     the first frontier member;
//  4. the column teams reduce the hits with min, in place: every locale of
//     a grid column writes into one shared band (comm.LendColBands);
//  5. the result is emitted in spmvAssemble order: every hit v gets level
//     and its parent, its visited flag set, and becomes the next frontier,
//     written into frontier in place.
//
// Each band's first hit is its smallest frontier in-neighbour, so the min
// across the bands is the global smallest: the parent a sequential scan of
// v's in-neighbours would pick. Returns the size of the new frontier; a
// collective's error returns before any state is mutated.
func BFSPullRound[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], cols []*sparse.CSC[T], frontier *dist.SpVec[T], visited *dist.DenseVec[int64], level int64, levels, parents []int64) (int, error) {
	defer rt.Span("BFSPullRound").End()
	g := rt.G
	none := semiring.MaxValue[int64]()
	rt.S.CoforallSpawn()

	ids := make([][]int64, g.P)
	for l := range ids {
		lo, hi := frontier.Bounds[l], frontier.Bounds[l+1]
		seg := sparse.GetSlice[int64](rt.Scratch, hi-lo)
		for i := range seg {
			seg[i] = none
		}
		for _, u := range frontier.Loc[l].Ind {
			seg[u-lo] = int64(u)
		}
		ids[l] = seg
		rt.S.Compute(l, rt.Threads, sim.Kernel{Name: "dobfs-pull-encode", Items: int64(hi - lo), CPUPerItem: costScanCPU, BytesPerItem: 8})
	}
	bands, err := comm.RowAllGather(rt, ids)
	for _, seg := range ids {
		sparse.PutSlice(rt.Scratch, seg)
	}
	if err != nil {
		return 0, err
	}
	bandMask, err := maskBroadcast(rt, a.ColBands, visited)
	if err != nil {
		comm.ReleaseRowGather(rt, bands)
		return 0, err
	}

	// Each grid column writes its hits into one band, grid row 0 first: the
	// first hit a band receives is its column's smallest frontier member.
	reduced := comm.LendColBands[int64](rt, a.ColBands)
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		cc, x, seg, hits := cols[l], bands[l], bandMask[c], reduced[l]
		if r == 0 {
			fill(hits, none)
		}
		var checked, scanned int64
		for j := range hits {
			if seg[j] != 0 {
				continue
			}
			checked++
			for _, i := range cc.RowIdx[cc.ColPtr[j]:cc.ColPtr[j+1]] {
				scanned++
				if u := x[i]; u != none {
					hits[j] = min(hits[j], u)
					break
				}
			}
		}
		rt.S.Compute(l, rt.Threads, sim.Kernel{Name: "dobfs-pull-check", Items: checked, CPUPerItem: costPullCheckCPU, BytesPerItem: 1})
		rt.S.Compute(l, rt.Threads, sim.Kernel{Name: "dobfs-pull-scan", Items: scanned, CPUPerItem: costPullScanCPU, BytesPerItem: costPullScanBytes})
	}
	comm.ReleaseRowGather(rt, bands)
	putSlices(rt, bandMask)
	if err := comm.ColReduceInPlace(rt, reduced); err != nil {
		return 0, err
	}

	for _, lv := range frontier.Loc {
		lv.Ind, lv.Val = lv.Ind[:0], lv.Val[:0]
	}
	spmvAssemble(g, a.ColBands, visited.Bounds, reduced, func(l, lo int, src []int64) {
		lv, seg, base := frontier.Loc[l], visited.Loc[l], visited.Bounds[l]
		for k, u := range src {
			if u == none {
				continue
			}
			v := lo + k
			levels[v], parents[v] = level, u
			seg[v-base] = 1
			lv.Ind = append(lv.Ind, v)
			lv.Val = append(lv.Val, T(1))
		}
	})
	comm.ReleaseColReduce(rt, reduced)
	var st DistStats
	for l, lv := range frontier.Loc {
		rt.S.Compute(l, rt.Threads, sim.Kernel{Name: "spmspv-densetosparse", Items: int64(visited.Bounds[l+1] - visited.Bounds[l]), CPUPerItem: costScanCPU, BytesPerItem: 1})
		chargeFusedInstall(rt, l, lv.NNZ(), &st)
	}
	rt.S.Barrier()
	return st.NnzOut, nil
}
