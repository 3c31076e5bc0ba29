package core

import (
	"repro/internal/dist"
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
//     (the listing's denseToSparse).
//
// The result vector holds the discovering global row id of each reached
// column, as in the shared-memory version.
func SpMSpVDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T]) (*dist.SpVec[int64], DistStats) {
	defer rt.Span("SpMSpVDist", trace.T("engine", Engine(rt.ShmEngine).String())).End()
	g := rt.G
	n := a.NCols
	var st DistStats
	rt.S.CoforallSpawn()

	// Step 1: gather x along the processor rows.
	rt.S.BeginPhase("Gather Input")
	lxs := gatherFine(rt, a, x, &st)

	// Step 2: local multiply on every locale.
	rt.S.BeginPhase("Local Multiply")
	lys := make([]*sparse.Vec[int64], g.P)
	for l := 0; l < g.P; l++ {
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
		// Convert the discovered row ids to global vertex ids.
		r, _ := g.Coords(l)
		rowBase := int64(a.RowBands[r])
		for k := range ly.Val {
			ly.Val[k] += rowBase
		}
		lys[l] = ly
		st.LocalEntries += shmStats.EntriesVisited
	}

	// Step 3: scatter the output across locales through the global SPA
	// (a block-distributed atomic bitmap over the column index space).
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

// rowBandInput concatenates the pieces of x that team — the locales of
// processor row r — own into one block-local input vector, allocated once at
// its final size. Sources are visited in increasing order and own increasing
// index ranges, so the concatenation of their sorted pieces stays sorted.
func rowBandInput[T semiring.Number](a *dist.Mat[T], x *dist.SpVec[T], r int, team []int) *sparse.Vec[T] {
	rowBase := a.RowBands[r]
	total := 0
	for _, src := range team {
		total += x.Loc[src].NNZ()
	}
	lx := &sparse.Vec[T]{N: a.RowBands[r+1] - rowBase, Ind: make([]int, 0, total), Val: make([]T, 0, total)}
	for _, src := range team {
		sv := x.Loc[src]
		for _, gi := range sv.Ind {
			lx.Ind = append(lx.Ind, gi-rowBase) // block-local row ids
		}
		lx.Val = append(lx.Val, sv.Val...)
	}
	return lx
}

// gatherFine gives every locale the x pieces of its processor row, element by
// element as the listing copies them (step 1 of SpMSpVDist), and charges the
// fine-grained exchange.
func gatherFine[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T], st *DistStats) []*sparse.Vec[T] {
	g := rt.G
	lxs := make([]*sparse.Vec[T], g.P)
	for l := 0; l < g.P; l++ {
		r, _ := g.Coords(l)
		team := g.RowLocales(r)
		lxs[l] = rowBandInput(a, x, r, team)
		st.GatheredElems += int64(lxs[l].NNZ())
		var remoteElems int64
		srcCount := 0
		for _, src := range team {
			// An empty source moves nothing — and charges nothing.
			if n := x.Loc[src].NNZ(); n > 0 && src != l {
				remoteElems += int64(n)
				srcCount++
			}
		}
		if remoteElems > 0 {
			// Element-wise remote index/value copies plus per-source
			// remote-domain metadata accesses. The whole machine gathers at
			// once: the active-message service capacity is shared, so the
			// effective latency grows with the number of contenders (P).
			msgs := remoteElems + int64(srcCount)*6
			o := rt.FineLatencyOpts(l, pickRemote(l, g.P), msgs, bytesPerEntry, g.P)
			// The listing's copy loop zipper-iterates a REMOTE sparse domain;
			// that iteration is serial (no leader/follower support), so the
			// blocking gets admit no overlap — which is why the gather, not
			// the scatter, dominates in the paper's Figs 8 and 9.
			o.Overlap = 1
			rt.S.FineGrained(l, o)
		}
	}
	return lxs
}

// scatterFine merges the local products through the global first-wins bitmap
// (step 3 of SpMSpVDist), one fine-grained remote update per element, and
// returns the number of claimed positions. The local products are recycled
// into the scratch arena.
func scatterFine[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], lys []*sparse.Vec[int64], isthere []bool, value []int64, st *DistStats) int {
	g := rt.G
	n := a.NCols
	claimed := 0
	for l := 0; l < g.P; l++ {
		_, c := g.Coords(l)
		colBase := a.ColBands[c]
		ly := lys[l]
		var remoteMsgs int64
		for k, lj := range ly.Ind {
			gj := colBase + lj
			if !isthere[gj] {
				isthere[gj] = true
				value[gj] = ly.Val[k]
				claimed++
			}
			if locale.OwnerOf(n, g.P, gj) != l {
				remoteMsgs++
			}
		}
		st.ScatteredMsgs += int64(ly.NNZ())
		if remoteMsgs > 0 {
			o := rt.FineLatencyOpts(l, pickRemote(l, g.P), remoteMsgs, bytesPerEntry, g.P)
			rt.S.FineGrained(l, o)
		}
		// The local product was kernel scratch; recycle its backing arrays.
		sparse.PutVec(rt.Scratch, ly)
		lys[l] = nil
	}
	return claimed
}

// denseToSparse converts the global SPA back to the block-distributed sparse
// result (the listing's denseToSparse): each locale scans its owned range of
// the bitmap, once to size its block and once to fill it, and clears the
// flags behind it so the SPA goes back to the arena clean.
func denseToSparse[V semiring.Number](rt *locale.Runtime, n int, isthere []bool, value []V, st *DistStats) *dist.SpVec[V] {
	g := rt.G
	bounds := locale.BlockBounds(n, g.P)
	y := &dist.SpVec[V]{G: g, N: n, Bounds: bounds, Loc: make([]*sparse.Vec[V], g.P)}
	for l := 0; l < g.P; l++ {
		lo, hi := bounds[l], bounds[l+1]
		cnt := 0
		for _, there := range isthere[lo:hi] {
			if there {
				cnt++
			}
		}
		lv := &sparse.Vec[V]{N: n, Ind: make([]int, 0, cnt), Val: make([]V, 0, cnt)}
		for gj := lo; gj < hi && len(lv.Ind) < cnt; gj++ {
			if isthere[gj] {
				isthere[gj] = false
				lv.Ind = append(lv.Ind, gj)
				lv.Val = append(lv.Val, value[gj])
			}
		}
		y.Loc[l] = lv
		st.NnzOut += cnt
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "spmspv-densetosparse",
			Items:        int64(hi - lo),
			CPUPerItem:   costScanCPU,
			BytesPerItem: 1,
		})
	}
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
	lxs := gatherFine(rt, a, x, &st)

	rt.S.BeginPhase("Local Multiply")
	lys := make([]*sparse.Vec[T], g.P)
	for l := 0; l < g.P; l++ {
		ly, shmStats := SpMSpVShmSemiring(a.Blocks[l], lxs[l], sr, ShmConfig{
			Threads: rt.Threads,
			Workers: rt.RealWorkers,
			Engine:  Engine(rt.ShmEngine),
			Sim:     rt.S,
			Loc:     l,
			Trace:   rt.Tr,
			Pool:    rt.WP,
			Scratch: rt.Scratch,
		})
		lys[l] = ly
		st.LocalEntries += shmStats.EntriesVisited
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
