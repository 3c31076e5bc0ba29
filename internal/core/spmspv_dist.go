package core

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// DistStats reports the aggregate work of a distributed SpMSpV call.
type DistStats struct {
	GatheredElems int64 // vector elements moved during the gather phase
	LocalEntries  int64 // matrix entries visited by the local multiplies
	ScatteredMsgs int64 // output elements scattered across locales
	NnzOut        int
}

// spmspvPlan parameterises the one distributed SpMSpV pipeline (spmspvRun).
type spmspvPlan struct {
	// comm charges the gather and the scatter element by element
	// (inspect.CommFine, the listing's exchange) or as the bulk collectives
	// price them (inspect.CommBulk); the data moved is the same either way.
	comm inspect.Comm
	// mask, when non-nil, is broadcast down the grid columns and filters every
	// local product before the scatter: an entry at column j survives when
	// mask[j] == 0 (the complemented mask).
	mask *dist.DenseVec[int64]
}

// spmspvRun is the paper's Listing 8, written once: every distributed
// pattern SpMSpV of this package — plain, masked, fused with the assign or
// the frontier update that consumes it — is this pipeline with a plan and a
// sink. Between one spawn and one barrier it runs
//
//  0. Mask Broadcast (masked plans only): each mask band is replicated down
//     its grid column, so suppressed elements never cross the network.
//  1. Gather Input: each locale (r, c) collects the pieces of x owned by the
//     locales of processor row r.
//  2. Local Multiply: each locale runs the shared-memory SpMSpV on its block,
//     filtering the product against its mask band.
//  3. Scatter Output: each local product is cut into per-owner segments, and
//     every owner merges its segments in locale order, first-wins — the
//     resolution order of the listing's global isthere bitmap.
//
// and then, still inside the scatter phase, asks start whether to emit with
// the claimed count (a nil start always emits). If so, every owner hands emit
// its merged run of (position, discovering global row) pairs, in locale
// order. On the fine plan each emit follows the charge of the owner's pass
// over its n/P slice of the output — the listing's denseToSparse scan, which
// the merge replaces on the host but not in the model; on the bulk plan the
// merge is the scan. The runs are the pipeline's: emit must not keep them.
//
// The mask broadcast and the bulk plan's collectives are fault-checked, so
// they can fail (a lost locale, exhausted retries, a cancel); the pipeline
// then returns the error before emitting, every loan back. The fine plan
// without a mask makes no fault-checked transfer and cannot fail.
func spmspvRun[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], p spmspvPlan, st *DistStats, start func(claimed int) bool, emit func(l int, pos []int, val []int64)) error {
	rt.S.CoforallSpawn()
	var bandMask [][]int64
	if p.mask != nil {
		rt.S.BeginPhase("Mask Broadcast")
		var err error
		if bandMask, err = maskBroadcast(rt, a.ColBands, p.mask); err != nil {
			rt.S.EndPhase()
			return err
		}
	}
	bulk := p.comm == inspect.CommBulk

	rt.S.BeginPhase("Gather Input")
	lxs, err := gatherRowBands(rt, a, x, bulk, st)
	if err != nil {
		putSlices(rt, bandMask)
		rt.S.EndPhase()
		return err
	}

	rt.S.BeginPhase("Local Multiply")
	lys := multiplyBlocks(rt, a, lxs, bandMask, st)

	rt.S.BeginPhase("Scatter Output")
	runs, claimed, err := scatterOwnerRuns(rt, a.NCols, a.ColBands, lys, bulk, st)
	if err == nil && (start == nil || start(claimed)) {
		for l, run := range runs {
			if !bulk {
				rt.S.Compute(l, rt.Threads, sim.Kernel{
					Name:         "spmspv-densetosparse",
					Items:        int64((l+1)*a.NCols/rt.G.P - l*a.NCols/rt.G.P),
					CPUPerItem:   costScanCPU,
					BytesPerItem: 1,
				})
			}
			emit(l, run.pos, run.val)
		}
	}
	// A merged run is a loan; the others aliased the local products.
	for _, run := range runs {
		if run.loan {
			sparse.PutSlice(rt.Scratch, run.pos)
			sparse.PutSlice(rt.Scratch, run.val)
		}
	}
	for _, ly := range lys {
		sparse.PutVec(rt.Scratch, ly)
	}
	rt.S.EndPhase()
	if err != nil {
		return err
	}
	rt.S.Barrier()
	return nil
}

// putSlices hands mask segments back to the arena.
func putSlices(rt *locale.Runtime, segs [][]int64) {
	for _, seg := range segs {
		sparse.PutSlice(rt.Scratch, seg)
	}
}

// SpMSpVDist is the paper's Listing 8: the distributed sparse matrix – sparse
// vector multiplication over a 2-D block-distributed matrix, in three steps:
//
//  1. Gather: each locale (r, c) collects the pieces of x owned by the
//     locales of processor row r — element by element, exactly as the
//     listing copies remote sparse-domain indices one at a time. This
//     fine-grained exchange is what dominates the multi-node runtime in
//     Figs 8 and 9.
//  2. Local multiply: each locale runs the shared-memory SpMSpV on its block.
//  3. Scatter: the local outputs are merged through a global (distributed)
//     atomic isthere bitmap, one fine-grained remote update per element, and
//     each locale then converts its slice of the bitmap back to sparse form
//     (the listing's denseToSparse). The model charges that; the host merges
//     each owner's sorted runs first-wins in locale order, to the same result.
//
// The result vector holds the discovering global row id of each reached
// column, as in the shared-memory version.
func SpMSpVDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T]) (*dist.SpVec[int64], DistStats) {
	defer rt.Span("SpMSpVDist", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	y, st, _ := spmspvToVec(rt, a, x, spmspvPlan{}) // the unmasked fine plan cannot fail
	return y, st
}

// SpMSpVDistBulk is the communication-avoiding variant of the distributed
// SpMSpV the paper's discussion recommends ("We can mitigate this effect by
// using bulk-synchronous execution and batched communication"): the same
// pipeline on the bulk plan, whose gather and scatter are charged as the
// bulk collectives of internal/comm —
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
// The result is bitwise identical to SpMSpVDist. Retry and fault costs flow
// through the collectives' retry path, so a fault plan slows the modeled
// clock without changing the output, and a crashed locale or exhausted retry
// budget surfaces as an error.
func SpMSpVDistBulk[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T]) (*dist.SpVec[int64], DistStats, error) {
	defer rt.Span("SpMSpVDistBulk", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	return spmspvToVec(rt, a, x, spmspvPlan{comm: inspect.CommBulk})
}

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
//
// The mask broadcast is fault-checked; its error is returned.
func SpMSpVDistMasked[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], mask *dist.DenseVec[int64]) (*dist.SpVec[int64], DistStats, error) {
	defer rt.Span("SpMSpVDistMasked", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	return spmspvToVec(rt, a, x, spmspvPlan{mask: mask})
}

// spmspvToVec runs the pipeline into the listing's own sink: denseToSparse
// into a fresh result vector, each locale's block a copy of its run.
func spmspvToVec[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], p spmspvPlan) (*dist.SpVec[int64], DistStats, error) {
	var st DistStats
	n := a.NCols
	y := &dist.SpVec[int64]{G: rt.G, N: n, Bounds: locale.BlockBounds(n, rt.G.P), Loc: make([]*sparse.Vec[int64], rt.G.P)}
	err := spmspvRun(rt, a, x, p, &st, nil, func(l int, pos []int, val []int64) {
		y.Loc[l] = &sparse.Vec[int64]{N: n, Ind: slices.Clone(pos), Val: slices.Clone(val)}
		st.NnzOut += len(pos)
	})
	if err != nil {
		return nil, st, err
	}
	return y, st, nil
}

// rowBandInput concatenates the pieces of x that team — the locales of
// processor row r — own into one block-local input vector, an arena vector.
// Sources are visited in increasing order and own increasing index ranges,
// so the concatenation of their sorted pieces stays sorted.
func rowBandInput[T semiring.Number](scratch *sparse.ScratchPool, a *dist.Mat[T], x *dist.SpVec[T], r int, team []int) *sparse.Vec[T] {
	rowBase := a.RowBands[r]
	lx := sparse.GetVec[T](scratch, a.RowBands[r+1]-rowBase)
	for _, src := range team {
		sv := x.Loc[src]
		for _, gi := range sv.Ind {
			lx.Ind = append(lx.Ind, gi-rowBase) // block-local row ids
		}
		lx.Val = append(lx.Val, sv.Val...)
	}
	return lx
}

// gatherRowBands gives every locale the x pieces of its processor row (the
// pipeline's gather) in arena vectors. Fine charging is the listing's
// element-by-element copy; bulk charging is comm.SparseRowAllGather's — one
// α+βn payload per (src, dst) team pair plus a per-destination sorted merge.
// The gathered data is the same either way (team order concatenates disjoint
// ascending ranges), so only the modeled clock differs. On an error every
// vector is back in the arena.
func gatherRowBands[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], bulk bool, st *DistStats) ([]*sparse.Vec[T], error) {
	g := rt.G
	lxs := make([]*sparse.Vec[T], g.P)
	for l := 0; l < g.P; l++ {
		r, _ := g.Coords(l)
		lxs[l] = rowBandInput(rt.Scratch, a, x, r, g.RowLocales(r))
		st.GatheredElems += int64(lxs[l].NNZ())
		if bulk {
			continue
		}
		if o, ok := fineGatherOpts(rt, x, l); ok {
			rt.S.FineGrained(l, o)
		}
	}
	if bulk {
		if err := comm.ChargeSparseRowAllGather(rt, func(l int) int { return x.Loc[l].NNZ() }); err != nil {
			for _, lx := range lxs {
				sparse.PutVec(rt.Scratch, lx)
			}
			return nil, err
		}
	}
	return lxs, nil
}

// fineGatherOpts prices locale l's share of the fine gather: element-wise
// remote index/value copies plus per-source remote-domain metadata accesses
// (an empty source moves nothing, and charges nothing). ok is false when no
// element is remote. The whole machine gathers at once: the active-message
// service capacity is shared, so the effective latency grows with the number
// of contenders (P).
func fineGatherOpts[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], l int) (o sim.RemoteOpts, ok bool) {
	g := rt.G
	r, _ := g.Coords(l)
	var remoteElems int64
	srcCount := 0
	for c := 0; c < g.Pc; c++ {
		if src, n := g.ID(r, c), x.Loc[g.ID(r, c)].NNZ(); n > 0 && src != l {
			remoteElems += int64(n)
			srcCount++
		}
	}
	if remoteElems == 0 {
		return o, false
	}
	o = rt.FineLatencyOpts(l, pickRemote(l, g.P), remoteElems+int64(srcCount)*6, bytesPerEntry, g.P)
	// The listing's copy loop zipper-iterates a REMOTE sparse domain; that
	// iteration is serial (no leader/follower support), so the blocking gets
	// admit no overlap — which is why the gather, not the scatter, dominates
	// in the paper's Figs 8 and 9.
	o.Overlap = 1
	return o, true
}

// maskBroadcast replicates the mask segments down the grid columns (the
// pipeline's step 0): each column team's band goes from its grid-row-0
// member to the others through comm.TeamBroadcast, 8 bytes per mask entry,
// charged only when the team spans more than one locale. The segments are
// arena scratch; multiplyBlocks hands them back once it has filtered with
// them, and an error hands them back at once.
func maskBroadcast(rt *locale.Runtime, colBands []int, mask *dist.DenseVec[int64]) ([][]int64, error) {
	g := rt.G
	bandMask := make([][]int64, g.Pc)
	team := sparse.GetSlice[int](rt.Scratch, g.Pr)
	defer sparse.PutSlice(rt.Scratch, team)
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
		for r := range team {
			team[r] = g.ID(r, c)
		}
		if err := comm.TeamBroadcast(rt, team[0], team, comm.DenseBytes(len(seg)), "maskbroadcast"); err != nil {
			putSlices(rt, bandMask[:c+1])
			return nil, err
		}
	}
	return bandMask, nil
}

// blockShmConfig is the shared-memory configuration of locale l's block
// multiply: the runtime's threads, workers, engine, clock, tracer and arena.
func blockShmConfig(rt *locale.Runtime, l int) ShmConfig {
	return ShmConfig{
		Threads: rt.Threads,
		Workers: rt.RealWorkers,
		Engine:  Engine(rt.ShmEngine),
		Sim:     rt.S,
		Loc:     l,
		Trace:   rt.Tr,
		Pool:    rt.WP,
		Scratch: rt.Scratch,
	}
}

// multiplyBlocks runs the per-block shared-memory SpMSpV on every locale,
// putting each arena input vector back once it is consumed, and rewrites the
// discovered row ids to global vertex ids. When bandMask is non-nil the
// replicated mask segment seg filters the local product in place before the
// scatter (and is recycled afterwards): an entry at band-local position lj
// survives when seg[lj] == 0. The mask is position-only, so filtering before
// the first-wins scatter claims exactly the positions a multiply-then-filter
// chain keeps, with the same winning values.
func multiplyBlocks[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], lxs []*sparse.Vec[T], bandMask [][]int64, st *DistStats) []*sparse.Vec[int64] {
	g := rt.G
	lys := make([]*sparse.Vec[int64], g.P)
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		ly, shmStats := SpMSpVShm(a.Blocks[l], lxs[l], blockShmConfig(rt, l))
		sparse.PutVec(rt.Scratch, lxs[l])
		st.LocalEntries += shmStats.EntriesVisited
		rowBase := int64(a.RowBands[r])
		if bandMask == nil {
			for k := range ly.Val {
				ly.Val[k] += rowBase
			}
			lys[l] = ly
			continue
		}
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-mask-filter",
			Items:        int64(ly.NNZ()),
			CPUPerItem:   6,
			BytesPerItem: 9,
		})
		kept := 0 // the survivors are compacted in place
		for k, lj := range ly.Ind {
			if bandMask[c][lj] == 0 {
				ly.Ind[kept], ly.Val[kept] = lj, ly.Val[k]+rowBase
				kept++
			}
		}
		ly.Ind, ly.Val = ly.Ind[:kept], ly.Val[:kept]
		lys[l] = ly
	}
	putSlices(rt, bandMask)
	return lys
}

// ownerRun is the sorted, duplicate-free (global column, discovering global
// row) pairs one owner receives from the pipeline's scatter.
type ownerRun struct {
	pos  []int
	val  []int64
	loan bool // pos and val are arena loans: the merge of two or more segments
}

// scatterOwnerRuns is the pipeline's scatter; it returns every owner's run
// and the claimed count. Each sorted local product is rewritten to global
// column ids in place and cut at the output's block bounds; each owner merges
// its segments in source-locale order, first-wins — the resolution order of a
// global isthere bitmap visited in locale order. An owner reached by one
// segment (every owner when Pr == 1) gets that segment itself, uncopied.
// Fine charging is one remote update per element owned elsewhere; bulk
// charging is comm.ColMergeScatter's — one α+βn payload per remote segment,
// plus a per-owner merge. The runs are the same either way; an error returns
// none of them.
func scatterOwnerRuns(rt *locale.Runtime, n int, colBands []int, lys []*sparse.Vec[int64], bulk bool, st *DistStats) ([]ownerRun, int, error) {
	g := rt.G
	// Owner o's segment of lys[l] is [cuts[l*(P+1)+o], cuts[l*(P+1)+o+1]).
	cuts := sparse.GetSlice[int](rt.Scratch, g.P*(g.P+1))
	defer sparse.PutSlice(rt.Scratch, cuts)
	for l, ly := range lys {
		if _, c := g.Coords(l); colBands[c] != 0 {
			for k := range ly.Ind {
				ly.Ind[k] += colBands[c] // block-local column ids → global, still sorted
			}
		}
		cut := cuts[l*(g.P+1):]
		for o, k := 0, 0; o < g.P; o++ {
			cut[o] = k
			// A search only where a segment starts: a product spans the few
			// owners of its column band.
			if hi := (o + 1) * n / g.P; k < len(ly.Ind) && ly.Ind[k] < hi {
				end, _ := slices.BinarySearch(ly.Ind[k:], hi)
				k += end
			}
			cut[o+1] = k
		}
		st.ScatteredMsgs += int64(ly.NNZ())
		if remoteMsgs := int64(ly.NNZ() - (cut[l+1] - cut[l])); !bulk && remoteMsgs > 0 {
			o := rt.FineLatencyOpts(l, pickRemote(l, g.P), remoteMsgs, bytesPerEntry, g.P)
			rt.S.FineGrained(l, o)
		}
	}
	if bulk {
		seg := func(src, dst int) int { return cuts[src*(g.P+1)+dst+1] - cuts[src*(g.P+1)+dst] }
		if err := comm.ChargeColMergeScatter(rt, seg); err != nil {
			return nil, 0, err
		}
	}

	runs, claimed := make([]ownerRun, g.P), 0
	var indBuf [8][]int // a merge's segments in source order, on the stack up to Pr = 8
	var valBuf [8][]int64
	for o := range runs {
		segInd, segVal, total := indBuf[:0], valBuf[:0], 0
		for l, ly := range lys {
			if lo, hi := cuts[l*(g.P+1)+o], cuts[l*(g.P+1)+o+1]; lo < hi {
				segInd = append(segInd, ly.Ind[lo:hi:hi])
				segVal = append(segVal, ly.Val[lo:hi:hi])
				total += hi - lo
			}
		}
		run := &runs[o]
		if run.loan = len(segInd) > 1; run.loan {
			run.pos, run.val = sparse.GetSlice[int](rt.Scratch, total), sparse.GetSlice[int64](rt.Scratch, total)
		}
		run.pos, run.val = comm.KWayMergeDedup(rt.Scratch, segInd, segVal, nil, run.pos, run.val)
		claimed += len(run.pos)
	}
	return runs, claimed, nil
}

// denseToSparse converts the global SPA back to the block-distributed sparse
// result (the listing's denseToSparse): each locale harvests its owned range
// of the bitmap once — clearing its flags, so the bitmap goes back to the
// arena clean — and copies the claimed positions and values into a block of
// exactly that size. Each harvest is charged as that locale's pass over its
// slice.
func denseToSparse[V semiring.Number](rt *locale.Runtime, n int, isthere []bool, value []V, st *DistStats) *dist.SpVec[V] {
	bounds := locale.BlockBounds(n, rt.G.P)
	y := &dist.SpVec[V]{G: rt.G, N: n, Bounds: bounds, Loc: make([]*sparse.Vec[V], rt.G.P)}
	widest := 0
	for l := 0; l < rt.G.P; l++ {
		widest = max(widest, bounds[l+1]-bounds[l])
	}
	pos := sparse.GetSlice[int](rt.Scratch, widest)
	for l := 0; l < rt.G.P; l++ {
		lo, hi := bounds[l], bounds[l+1]
		k := sparse.HarvestFlags(isthere[lo:hi], lo, pos)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-densetosparse",
			Items:        int64(hi - lo),
			CPUPerItem:   costScanCPU,
			BytesPerItem: 1,
		})
		lv := &sparse.Vec[V]{N: n, Ind: make([]int, k), Val: make([]V, k)}
		copy(lv.Ind, pos[:k])
		for i, gj := range pos[:k] {
			lv.Val[i] = value[gj]
		}
		y.Loc[l] = lv
		st.NnzOut += k
	}
	sparse.PutSlice(rt.Scratch, pos)
	return y
}

// SpMSpVDistSemiring is the distributed general-semiring product
// y[j] = ⊕_i x[i] ⊗ A[i,j] with the same gather / local multiply / scatter
// structure; the scatter merges values with the additive monoid instead of
// first-wins claiming, so the result is deterministic.
func SpMSpVDistSemiring[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], sr semiring.Semiring[T]) (*dist.SpVec[T], DistStats) {
	defer rt.Span("SpMSpVDistSemiring", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	rt.S.CoforallSpawn()

	rt.S.BeginPhase("Gather Input")
	lxs, _ := gatherRowBands(rt, a, x, false, &st) // the fine gather cannot fail

	rt.S.BeginPhase("Local Multiply")
	lys := make([]*sparse.Vec[T], g.P)
	for l := 0; l < g.P; l++ {
		ly, shmStats := SpMSpVShmSemiring(a.Blocks[l], lxs[l], sr, blockShmConfig(rt, l))
		lys[l] = ly
		st.LocalEntries += shmStats.EntriesVisited
		sparse.PutVec(rt.Scratch, lxs[l])
	}

	// The accumulator starts at the additive identity everywhere; a position
	// is initialised when the first contribution reaches it.
	rt.S.BeginPhase("Scatter Output")
	spa := sparse.GetBucketSPA[T](rt.Scratch, n, 1, 1)
	acc, touched := spa.Dense()
	id, add := sr.AddIdentity(), sr.Add.Op
	for l := 0; l < g.P; l++ {
		_, c := g.Coords(l)
		colBase := a.ColBands[c]
		ly := lys[l]
		var remoteMsgs int64
		for k, lj := range ly.Ind {
			gj := colBase + lj
			if !touched[gj] {
				touched[gj] = true
				acc[gj] = id
			}
			acc[gj] = add(acc[gj], ly.Val[k])
			if locale.OwnerOf(n, g.P, gj) != l {
				remoteMsgs++
			}
		}
		st.ScatteredMsgs += int64(ly.NNZ())
		if remoteMsgs > 0 {
			o := rt.FineLatencyOpts(l, pickRemote(l, g.P), remoteMsgs, bytesPerEntry, g.P)
			rt.S.FineGrained(l, o)
		}
		sparse.PutVec(rt.Scratch, ly)
		lys[l] = nil
	}
	y := denseToSparse(rt, n, touched, acc, &st)
	sparse.PutBucketSPA(rt.Scratch, spa)
	rt.S.EndPhase()
	rt.S.Barrier()
	return y, st
}

// pickRemote returns a representative peer locale distinct from l (for
// latency classification of remote traffic).
func pickRemote(l, p int) int {
	if p == 1 {
		return l
	}
	return (l + 1) % p
}
