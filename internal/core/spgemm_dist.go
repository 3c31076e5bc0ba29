package core

// Distributed SpGEMM: blocked Sparse SUMMA over the 2-D locale grid, after
// Buluç & Gilbert's "Parallel Sparse Matrix-Matrix Multiplication and
// Indexing" (the paper's reference [8]) at CombBLAS-2.0 shape:
//
//   - The inner dimension is swept in band segments. On a square grid the
//     segments are exactly the √P classic SUMMA stages; on a rectangular
//     Pr×Pc grid they are the merged boundaries of A's column bands and B's
//     row bands (≤ Pr+Pc−1 segments, no lcm blow-up), so non-square grids —
//     including the 1×p grids a prime locale count produces — just work.
//   - In stage k every locale (r, c) receives A's panel for the stage's
//     band, tree-broadcast along its processor row, and B's panel broadcast
//     along its processor column: O(team size) messages per panel per stage
//     (comm.TeamBroadcast), never O(nnz), each fault-checked and
//     retried so the chaos machinery applies mid-broadcast.
//   - Local multiplies run the heap/hash Gustavson kernels of
//     spgemm_local.go on the runtime's ScratchPool, switching to the DCSC
//     doubly-compressed walk when a stage panel goes hypersparse.
//   - Stage products fold into a per-locale accumulator with a two-way
//     sorted merge; the strategy place axis (gb.ForceGather /
//     gb.ForceReplicate, auto via the inspector) picks between per-stage
//     broadcasts and prefetching whole panels up front.
//   - A stage panel is the owner's resident block read in place, as in
//     Buluç & Gilbert's SUMMA, never a per-stage copy: the block itself when
//     the stage covers its whole band (every stage of a square grid), a
//     row-range view for a partial B panel, one reused column cut for a
//     partial A panel (summaPanels). The operands are read-only throughout,
//     and the product shares no storage with them.

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Place-axis reasons for the SUMMA broadcast dispatch.
const (
	// ReasonStageBroadcast: moving each band panel in its own stage keeps
	// every message at panel size and overlaps with the stage multiplies.
	ReasonStageBroadcast = "stage-broadcast"
	// ReasonPanelPrefetch: replicating the row/column panels once up front
	// undercuts the per-stage tree latencies and headers.
	ReasonPanelPrefetch = "panel-prefetch"
)

// summaStage is one band segment of the inner-dimension sweep: global
// columns [lo, hi) of A (= rows of B), owned by A's column team ca and B's
// row team rb.
type summaStage struct {
	lo, hi, ca, rb int
}

// summaStages merges A's column-band and B's row-band boundaries into the
// stage list. Both arrays start at 0 and end at the shared inner dimension,
// so every segment lies inside exactly one band of each; empty segments
// (empty bands happen whenever the inner dimension is smaller than a grid
// side) are dropped.
func summaStages(aColBands, bRowBands []int) []summaStage {
	var stages []summaStage
	ca, rb := 0, 0
	lo := 0
	for ca < len(aColBands)-1 && rb < len(bRowBands)-1 {
		hi := aColBands[ca+1]
		if bRowBands[rb+1] < hi {
			hi = bRowBands[rb+1]
		}
		if hi > lo {
			stages = append(stages, summaStage{lo: lo, hi: hi, ca: ca, rb: rb})
		}
		if aColBands[ca+1] == hi {
			ca++
		}
		if bRowBands[rb+1] == hi {
			rb++
		}
		lo = hi
	}
	return stages
}

// EstimateSpGEMMPlace prices the two ways SUMMA can hand every locale its
// stage panels. Stage broadcasts move each panel in its own tree per stage —
// per-stage headers and tree latencies, panel-sized messages. Prefetch
// all-gathers the full row panel of A and column panel of B once up front —
// one header per block, but the biggest messages the call will send. Panel
// nnz per stage is approximated as the block's nnz split evenly over the
// stages crossing it.
func EstimateSpGEMMPlace[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], stages []summaStage) (stage, prefetch float64) {
	g := rt.G
	// A panel's tree broadcast, as its root pays it.
	bcast := func(size, nnz int) float64 { return comm.TeamBroadcastTime(rt, 0, 0, size, comm.PanelBytes(nnz)) }
	stagesInA := make([]int, g.Pc)
	stagesInB := make([]int, g.Pr)
	for _, st := range stages {
		stagesInA[st.ca]++
		stagesInB[st.rb]++
	}
	for _, st := range stages {
		var worst float64
		for r := 0; r < g.Pr; r++ {
			worst = max(worst, bcast(g.Pc, a.Blocks[g.ID(r, st.ca)].NNZ()/max(stagesInA[st.ca], 1)))
		}
		for c := 0; c < g.Pc; c++ {
			worst = max(worst, bcast(g.Pr, b.Blocks[g.ID(st.rb, c)].NNZ()/max(stagesInB[st.rb], 1)))
		}
		stage += worst
	}
	for r := 0; r < g.Pr; r++ {
		var team float64
		for c := 0; c < g.Pc; c++ {
			team += bcast(g.Pc, a.Blocks[g.ID(r, c)].NNZ())
		}
		prefetch = max(prefetch, team)
	}
	for c := 0; c < g.Pc; c++ {
		var team float64
		for r := 0; r < g.Pr; r++ {
			team += bcast(g.Pr, b.Blocks[g.ID(r, c)].NNZ())
		}
		prefetch = max(prefetch, team)
	}
	return stage, prefetch
}

// summaPlace routes the broadcast placement through the runtime's inspector
// with the standard precedence (forced > fault-plan > single-locale >
// modeled cost). A nil inspector keeps the historical per-stage broadcasts.
func summaPlace[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], stages []summaStage) inspect.Place {
	in := rt.Insp
	if in == nil {
		return inspect.PlaceGather
	}
	if rt.Fault != nil || rt.G.P == 1 {
		reason := inspect.ReasonSingleLocale
		if rt.Fault != nil {
			// Per-stage broadcasts carry the per-transfer retry accounting;
			// keep them so injected faults surface mid-broadcast.
			reason = inspect.ReasonFaultPlan
		}
		in.Note("SpGEMM", inspect.AxisPlace, "gather", reason)
		defer dispatchSpan(rt, in).End()
		return inspect.PlaceGather
	}
	sc, pc := EstimateSpGEMMPlace(rt, a, b, stages)
	choice := in.DecidePlace("SpGEMM", sc, pc, ReasonStageBroadcast, ReasonPanelPrefetch)
	defer dispatchSpan(rt, in).End()
	return choice
}

// mergeCSRInto writes a ⊕ b (entry-wise, add on collisions) into out,
// reusing out's arrays. a and b must have identical shape. The output is
// sized once, from nnz(a)+nnz(b), and written by index.
func mergeCSRInto[T semiring.Number](a, b *sparse.CSR[T], add semiring.BinaryOp[T], out *sparse.CSR[T]) {
	spgemmResize(out, a.NRows, a.NCols)
	bound := a.NNZ() + b.NNZ()
	cols := slices.Grow(out.ColIdx, bound)[:bound]
	vals := slices.Grow(out.Val, bound)[:bound]
	n := 0
	for i := 0; i < a.NRows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) && y < len(bc) {
			switch {
			case ac[x] < bc[y]:
				cols[n], vals[n] = ac[x], av[x]
				x++
			case ac[x] > bc[y]:
				cols[n], vals[n] = bc[y], bv[y]
				y++
			default:
				cols[n], vals[n] = ac[x], add(av[x], bv[y])
				x, y = x+1, y+1
			}
			n++
		}
		copy(vals[n:], av[x:])
		n += copy(cols[n:], ac[x:])
		copy(vals[n:], bv[y:])
		n += copy(cols[n:], bc[y:])
		out.RowPtr[i+1] = n
	}
	out.ColIdx, out.Val = cols[:n], vals[:n]
}

// summaPanels hands the stage loop its operand panels without copying a
// resident block. a[r] and b[c] are the current stage's panels for grid row r
// and grid column c: the owner's block itself when the stage segment covers
// the block's whole band, otherwise a row-range view (B: index and value
// arrays alias the block, the rebased RowPtr is on loan from the arena) or a
// column cut into a buffer reused across stages (A: a column range is not
// contiguous in CSR, so it is the one panel that is copied). Panels are
// read-only; the aliasing rule is DESIGN.md §15.
type summaPanels[T semiring.Number] struct {
	scratch *sparse.ScratchPool
	a, b    []*sparse.CSR[T]
	aCut    []sparse.CSR[T] // per grid row: the reused column-cut buffer
	bView   []sparse.CSR[T] // per grid column: the row-range view header
}

func newSummaPanels[T semiring.Number](scratch *sparse.ScratchPool, g *locale.Grid) *summaPanels[T] {
	return &summaPanels[T]{
		scratch: scratch,
		a:       make([]*sparse.CSR[T], g.Pr),
		b:       make([]*sparse.CSR[T], g.Pc),
		aCut:    make([]sparse.CSR[T], g.Pr),
		bView:   make([]sparse.CSR[T], g.Pc),
	}
}

// setA makes columns [c0, c1) of blk grid row r's A panel.
func (p *summaPanels[T]) setA(r int, blk *sparse.CSR[T], c0, c1 int) {
	if c0 == 0 && c1 == blk.NCols {
		p.a[r] = blk
		return
	}
	blk.ColRangeInto(c0, c1, &p.aCut[r])
	p.a[r] = &p.aCut[r]
}

// setB makes rows [r0, r1) of blk grid column c's B panel.
func (p *summaPanels[T]) setB(c int, blk *sparse.CSR[T], r0, r1 int) {
	if r0 == 0 && r1 == blk.NRows {
		p.b[c] = blk
		return
	}
	v := &p.bView[c]
	sparse.PutSlice(p.scratch, v.RowPtr)
	v.RowPtr = sparse.GetSlice[int](p.scratch, r1-r0+1)
	blk.RowRangeView(r0, r1, v)
	p.b[c] = v
}

// release returns the views' borrowed row pointers to the arena.
func (p *summaPanels[T]) release() {
	for c := range p.bView {
		sparse.PutSlice(p.scratch, p.bView[c].RowPtr)
		p.bView[c].RowPtr = nil
	}
}

// SpGEMMDist computes C = A·B over a semiring for 2-D block-distributed
// matrices with blocked Sparse SUMMA. Any grid shape works, square or not;
// A.NCols must equal B.NRows. See the package comment at the top of this
// file for the algorithm.
func SpGEMMDist[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], sr semiring.Semiring[T]) (*dist.Mat[T], error) {
	return spgemmDist(rt, a, b, nil, sr)
}

// SpGEMMDistMasked computes C = (A·B) .* pattern(M): only output positions
// stored in the mask are computed. Every stage multiply takes the locale's
// mask block (the mask's blocks align with C's because both share the grid
// and A's row / B's column bands), so no stage product or accumulator is ever
// larger than that block (the masked form of SpGEMMLocal).
func SpGEMMDistMasked[T semiring.Number](rt *locale.Runtime, a, b, mask *dist.Mat[T], sr semiring.Semiring[T]) (*dist.Mat[T], error) {
	if mask.NRows != a.NRows || mask.NCols != b.NCols {
		return nil, fmt.Errorf("core: SpGEMMDistMasked: mask is %dx%d, product is %dx%d",
			mask.NRows, mask.NCols, a.NRows, b.NCols)
	}
	return spgemmDist(rt, a, b, mask, sr)
}

func spgemmDist[T semiring.Number](rt *locale.Runtime, a, b, mask *dist.Mat[T], sr semiring.Semiring[T]) (*dist.Mat[T], error) {
	g := rt.G
	if a.NCols != b.NRows {
		return nil, fmt.Errorf("core: SpGEMMDist: inner dimensions %d vs %d", a.NCols, b.NRows)
	}
	stages := summaStages(a.ColBands, b.RowBands)
	place := summaPlace(rt, a, b, stages)
	placeTag := "stage-broadcast"
	if place == inspect.PlaceReplicate {
		placeTag = "panel-prefetch"
	}
	defer rt.Span("SpGEMMDist", trace.T("op", "spgemm"),
		trace.T("stages", strconv.Itoa(len(stages))), trace.T("place", placeTag)).End()
	rt.S.CoforallSpawn()

	c := &dist.Mat[T]{
		G:        g,
		NRows:    a.NRows,
		NCols:    b.NCols,
		RowBands: append([]int(nil), a.RowBands...),
		ColBands: append([]int(nil), b.ColBands...),
		Blocks:   make([]*sparse.CSR[T], g.P),
	}

	if place == inspect.PlaceReplicate {
		// Prefetch: all-gather A's blocks along each row team and B's along
		// each column team once; the stage loop then slices panels locally.
		ps := rt.Span("SUMMAPrefetch", trace.T("op", "spgemm"), trace.T("stage", "broadcast"))
		for l := 0; l < g.P; l++ {
			r, cc := g.Coords(l)
			if err := comm.TeamBroadcast(rt, l, g.RowLocales(r), comm.PanelBytes(a.Blocks[l].NNZ()), "summa-prefetch-a"); err != nil {
				ps.End()
				return nil, fmt.Errorf("core: SpGEMMDist prefetch: %w", err)
			}
			if err := comm.TeamBroadcast(rt, l, g.ColLocales(cc), comm.PanelBytes(b.Blocks[l].NNZ()), "summa-prefetch-b"); err != nil {
				ps.End()
				return nil, fmt.Errorf("core: SpGEMMDist prefetch: %w", err)
			}
		}
		ps.End()
	}

	// Per-locale stage product, accumulator and merge buffer: arena scratch,
	// reused across stages and across calls. The product is copied out of the
	// accumulator at its exact size, so none of it escapes.
	work := sparse.GetCSRs[T](rt.Scratch, 3*g.P)
	defer sparse.PutCSRs(rt.Scratch, work)
	stageOut, accs, spares := work[:g.P], work[g.P:2*g.P], work[2*g.P:]
	panels := newSummaPanels[T](rt.Scratch, g)
	defer panels.release()
	aPanels, bPanels := panels.a, panels.b

	for k, st := range stages {
		rt.S.BeginPhase("SUMMA stage " + strconv.Itoa(k))
		bs := rt.Span("SUMMABroadcast", trace.T("op", "spgemm"), trace.T("stage", "broadcast"),
			trace.T("k", strconv.Itoa(k)))
		for r := 0; r < g.Pr; r++ {
			owner := g.ID(r, st.ca)
			panels.setA(r, a.Blocks[owner], st.lo-a.ColBands[st.ca], st.hi-a.ColBands[st.ca])
			if place == inspect.PlaceGather {
				if err := comm.TeamBroadcast(rt, owner, g.RowLocales(r), comm.PanelBytes(aPanels[r].NNZ()), "summa-bcast-a"); err != nil {
					bs.End()
					return nil, fmt.Errorf("core: SpGEMMDist stage %d: %w", k, err)
				}
			}
		}
		for cc := 0; cc < g.Pc; cc++ {
			owner := g.ID(st.rb, cc)
			panels.setB(cc, b.Blocks[owner], st.lo-b.RowBands[st.rb], st.hi-b.RowBands[st.rb])
			if place == inspect.PlaceGather {
				if err := comm.TeamBroadcast(rt, owner, g.ColLocales(cc), comm.PanelBytes(bPanels[cc].NNZ()), "summa-bcast-b"); err != nil {
					bs.End()
					return nil, fmt.Errorf("core: SpGEMMDist stage %d: %w", k, err)
				}
			}
		}
		bs.End()

		ms := rt.Span("SUMMAMultiply", trace.T("op", "spgemm"), trace.T("stage", "multiply"),
			trace.T("k", strconv.Itoa(k)))
		for l := 0; l < g.P; l++ {
			r, cc := g.Coords(l)
			items := int64(aPanels[r].NNZ())
			var maskBlk *sparse.CSR[T]
			if mask != nil {
				maskBlk = mask.Blocks[l]
				items += int64(maskBlk.NNZ()) // the kernel's walk of the mask rows
			}
			items += SpGEMMLocal(rt.Scratch, aPanels[r], bPanels[cc], sr, stageOut[l], maskBlk)
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:         "summa-local",
				Items:        items,
				CPUPerItem:   25,
				BytesPerItem: 24,
			})
		}
		ms.End()

		gs := rt.Span("SUMMAMerge", trace.T("op", "spgemm"), trace.T("stage", "merge"),
			trace.T("k", strconv.Itoa(k)))
		for l := 0; l < g.P; l++ {
			if k == 0 {
				accs[l], stageOut[l] = stageOut[l], accs[l]
				continue
			}
			mergeCSRInto(accs[l], stageOut[l], sr.Add.Op, spares[l])
			accs[l], spares[l] = spares[l], accs[l]
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:         "summa-merge",
				Items:        int64(accs[l].NNZ() + stageOut[l].NNZ()),
				CPUPerItem:   30,
				BytesPerItem: 24,
			})
		}
		gs.End()
	}
	if len(stages) > 0 {
		rt.S.EndPhase()
	}

	for l := 0; l < g.P; l++ {
		if len(stages) == 0 { // empty inner dimension: an empty product
			r, cc := g.Coords(l)
			c.Blocks[l] = sparse.NewCSR[T](a.RowBands[r+1]-a.RowBands[r], b.ColBands[cc+1]-b.ColBands[cc])
			continue
		}
		c.Blocks[l] = accs[l].Clone()
	}
	rt.S.Barrier()
	return c, nil
}
