package comm

// Sparse bulk collectives for the distributed SpMSpV: both replace O(nnz)
// fine-grained α-charges with one α+βn message per (src, dst) pair — O(P)
// messages total — and merge the sorted per-source runs on arrival, so the
// destination never needs a global sort or a global atomic isthere bitmap.

import (
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Per merged element at the destination of a sparse collective: advance a
// run cursor, compare heads, append. Sequential streaming work.
const costSparseMergePerElem = 6.0

// payloadBytes is the wire size of n (index, value) pairs.
func payloadBytes(n int) int64 { return 2 * bytesOf(n) }

// SparseMsgTime is the price of one sparse message of n (index, value)
// pairs: the one α+βn transfer each sparse collective charges per (src, dst)
// pair.
func SparseMsgTime(rt *locale.Runtime, n int, intra bool) float64 {
	return rt.S.BulkTime(payloadBytes(n), intra)
}

// SparseMergeTime is the price of merging n sorted-run elements at one
// destination: a k-way merge streams through a cursor chain, so it runs on
// one thread.
func SparseMergeTime(rt *locale.Runtime, n int) float64 {
	return rt.S.ComputeTime(1, mergeKernel("", n))
}

func mergeKernel(name string, n int) sim.Kernel {
	return sim.Kernel{Name: name, Items: int64(n), CPUPerItem: costSparseMergePerElem}
}

// SparseRowAllGather gathers, on every locale, the sparse (index, value)
// runs of its processor-row team: each source sends its whole run to each
// teammate in a single bulk transfer (one α+βn charge per (src, dst) pair,
// with retry/fault charging per pair), and the destination k-way merges the
// per-source runs on arrival — they are sorted, so the merge is a linear
// streaming pass and the result is sorted without sorting. Duplicate indices
// across sources are kept in source order (the gather is a concatenation in
// index order, not a reduction).
//
// Returns one merged (ind, val) pair per locale; every locale owns fresh
// slices, so callers may rewrite them (e.g. to block-local indices) freely.
func SparseRowAllGather[T semiring.Number](rt *locale.Runtime, inds [][]int, vals [][]T) ([][]int, [][]T, error) {
	if err := ChargeSparseRowAllGather(rt, func(l int) int { return len(inds[l]) }); err != nil {
		return nil, nil, err
	}
	g := rt.G
	outInd := make([][]int, g.P)
	outVal := make([][]T, g.P)
	for r := 0; r < g.Pr; r++ {
		team := g.RowLocales(r)
		teamInds := make([][]int, 0, len(team))
		teamVals := make([][]T, 0, len(team))
		total := 0
		for _, src := range team {
			teamInds = append(teamInds, inds[src])
			teamVals = append(teamVals, vals[src])
			total += len(inds[src])
		}
		// Every element is kept; ties resolve to the lowest source.
		mergedInd, mergedVal := kwayMerge(rt.Scratch, teamInds, teamVals, false, nil, make([]int, 0, total), make([]T, 0, total))
		for di, dst := range team {
			if di == 0 {
				outInd[dst], outVal[dst] = mergedInd, mergedVal
			} else {
				// Each teammate owns a copy of the merged run.
				outInd[dst] = append(make([]int, 0, len(mergedInd)), mergedInd...)
				outVal[dst] = append(make([]T, 0, len(mergedVal)), mergedVal...)
			}
		}
	}
	return outInd, outVal, nil
}

// SparseRowAllGatherTime is what SparseRowAllGather charges dst when every
// locale l holds count(l) elements, fault-free: one message from each
// nonempty teammate, in team order, then the merge of the team's total.
func SparseRowAllGatherTime(rt *locale.Runtime, count func(l int) int, dst int) float64 {
	g := rt.G
	r, _ := g.Coords(dst)
	t, total := 0.0, 0
	for c := 0; c < g.Pc; c++ {
		src := g.ID(r, c)
		n := count(src)
		total += n
		if src != dst && n > 0 {
			t += SparseMsgTime(rt, n, g.SameNode(src, dst))
		}
	}
	return t + SparseMergeTime(rt, total)
}

// ChargeSparseRowAllGather charges SparseRowAllGather for runs of count(l)
// elements on every locale l, moving nothing (for callers that assemble the
// gathered data themselves): team by team, destination by destination, one
// fault-checked message from each nonempty teammate (an empty source sends
// nothing and charges nothing), then the merge.
func ChargeSparseRowAllGather(rt *locale.Runtime, count func(l int) int) error {
	defer rt.Span("SparseRowAllGather").End()
	g := rt.G
	for r := 0; r < g.Pr; r++ {
		total := 0
		for c := 0; c < g.Pc; c++ {
			total += count(g.ID(r, c))
		}
		for dc := 0; dc < g.Pc; dc++ {
			dst := g.ID(r, dc)
			for c := 0; c < g.Pc; c++ {
				src := g.ID(r, c)
				if n := count(src); src != dst && n > 0 {
					if err := chargeSparseMsg(rt, src, dst, n, "sparserowallgather"); err != nil {
						return err
					}
				}
			}
			rt.S.Compute(dst, 1, mergeKernel("sparse-allgather-merge", total))
		}
	}
	return nil
}

// chargeSparseMsg charges dst one fault-checked sparse message of n pairs
// from src.
func chargeSparseMsg(rt *locale.Runtime, src, dst, n int, op string) error {
	intra := rt.G.SameNode(src, dst)
	extra, err := retryExtra(rt, src, dst, SparseMsgTime(rt, n, intra), op)
	if err != nil {
		return err
	}
	rt.S.Bulk(dst, payloadBytes(n), intra)
	if extra > 0 {
		rt.S.Advance(dst, extra)
	}
	return nil
}

// ColMergeScatter scatters sorted per-locale (index, value) runs over the
// global index space [0, n) to the block owners of their indices and merges
// them at the destination: each source splits its run into the contiguous
// owner segments (the runs are sorted, so one linear scan) and sends each
// nonempty segment as one bulk message; the destination k-way merges the
// incoming sorted segments in source-locale order. With op == nil the first
// source to report an index wins — bitwise the resolution order of a global
// atomic isthere bitmap visited in locale order, which this collective
// replaces — otherwise duplicates are accumulated with op. The runs must be
// sorted and duplicate-free.
//
// Returns, per locale, the merged sorted duplicate-free run it owns: fresh,
// or the input's segment, capped, when it was the only one.
func ColMergeScatter[T semiring.Number](rt *locale.Runtime, n int, inds [][]int, vals [][]T, op semiring.BinaryOp[T]) ([][]int, [][]T, error) {
	g := rt.G
	bounds := locale.BlockBounds(n, g.P)
	// cuts[src*(P+1)+dst] is where src's run starts dst's segment.
	cuts := make([]int, g.P*(g.P+1))
	for src := 0; src < g.P; src++ {
		run, cut := inds[src], cuts[src*(g.P+1):]
		for dst, k := 0, 0; dst < g.P; dst++ {
			for k < len(run) && run[k] < bounds[dst+1] {
				k++
			}
			cut[dst+1] = k
		}
	}
	seg := func(src, dst int) int { return cuts[src*(g.P+1)+dst+1] - cuts[src*(g.P+1)+dst] }
	if err := ChargeColMergeScatter(rt, seg); err != nil {
		return nil, nil, err
	}
	outInd := make([][]int, g.P)
	outVal := make([][]T, g.P)
	for dst := 0; dst < g.P; dst++ {
		// The segments destined to dst, in source order (crucial for
		// deterministic first-wins resolution).
		var segInd [][]int
		var segVal [][]T
		for src := 0; src < g.P; src++ {
			if lo, hi := cuts[src*(g.P+1)+dst], cuts[src*(g.P+1)+dst+1]; lo < hi {
				segInd = append(segInd, inds[src][lo:hi:hi])
				segVal = append(segVal, vals[src][lo:hi:hi])
			}
		}
		outInd[dst], outVal[dst] = KWayMergeDedup(rt.Scratch, segInd, segVal, op, nil, nil)
	}
	return outInd, outVal, nil
}

// ChargeColMergeScatter charges ColMergeScatter for a scatter whose run from
// src holds seg(src, dst) elements of dst's block, moving nothing (for
// callers that cut and merge the runs themselves): every nonempty remote
// segment is one fault-checked message, source by source, and then every
// destination merges all its segments, its own included.
func ChargeColMergeScatter(rt *locale.Runtime, seg func(src, dst int) int) error {
	defer rt.Span("ColMergeScatter").End()
	g := rt.G
	for src := 0; src < g.P; src++ {
		for dst := 0; dst < g.P; dst++ {
			if n := seg(src, dst); src != dst && n > 0 {
				if err := chargeSparseMsg(rt, src, dst, n, "colmergescatter"); err != nil {
					return err
				}
			}
		}
	}
	for dst := 0; dst < g.P; dst++ {
		received := 0
		for src := 0; src < g.P; src++ {
			received += seg(src, dst)
		}
		rt.S.Compute(dst, 1, mergeKernel("colmerge-scatter-merge", received))
	}
	return nil
}

// KWayMergeDedup merges sorted, duplicate-free runs into one: duplicates
// resolve first-wins in run order (the source-locale order callers
// establish) when op is nil and accumulate with op otherwise. A single
// nonempty run comes back as it is, uncopied; else the merge is appended to
// outInd[:0] and outVal[:0], so lent buffers with room for every element
// allocate nothing, and nil ones are allocated at the runs' total length.
func KWayMergeDedup[T semiring.Number](scratch *sparse.ScratchPool, runs [][]int, vals [][]T, op semiring.BinaryOp[T], outInd []int, outVal []T) ([]int, []T) {
	total, nonempty, only := 0, 0, 0
	for k, r := range runs {
		if len(r) > 0 {
			total, nonempty, only = total+len(r), nonempty+1, k
		}
	}
	if nonempty == 1 {
		return runs[only], vals[only]
	}
	if outInd == nil {
		outInd, outVal = make([]int, 0, total), make([]T, 0, total)
	}
	return kwayMerge(scratch, runs, vals, true, op, outInd[:0], outVal[:0])
}

// kwayMerge appends the merge of sorted runs to outInd and outVal; ties
// resolve to the lowest run index. With dedup an index is appended once,
// keeping its first value or accumulating the others into it with op. The
// cursor array is checked out of the scratch arena (nil-safe).
func kwayMerge[T semiring.Number](scratch *sparse.ScratchPool, runs [][]int, vals [][]T, dedup bool, op semiring.BinaryOp[T], outInd []int, outVal []T) ([]int, []T) {
	pos := sparse.GetSlice[int](scratch, len(runs))
	clear(pos)
	defer sparse.PutSlice(scratch, pos)
	for {
		best := -1
		for k, r := range runs {
			if pos[k] < len(r) && (best < 0 || r[pos[k]] < runs[best][pos[best]]) {
				best = k
			}
		}
		if best < 0 {
			return outInd, outVal
		}
		i, v := runs[best][pos[best]], vals[best][pos[best]]
		pos[best]++
		if m := len(outInd); dedup && m > 0 && outInd[m-1] == i {
			if op != nil {
				outVal[m-1] = op(outVal[m-1], v)
			}
			continue
		}
		outInd = append(outInd, i)
		outVal = append(outVal, v)
	}
}
