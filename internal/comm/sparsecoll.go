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
	defer rt.Span("SparseRowAllGather").End()
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
			for _, src := range team {
				if src == dst || len(inds[src]) == 0 {
					continue // empty sources send nothing and charge nothing
				}
				bytes := payloadBytes(len(inds[src]))
				intra := g.SameNode(src, dst)
				extra, err := retryExtra(rt, src, dst, rt.S.BulkTime(bytes, intra), "sparserowallgather")
				if err != nil {
					return nil, nil, err
				}
				rt.S.Bulk(dst, bytes, intra)
				if extra > 0 {
					rt.S.Advance(dst, extra)
				}
			}
			rt.S.Compute(dst, 1, sim.Kernel{
				Name:       "sparse-allgather-merge",
				Items:      int64(len(mergedInd)),
				CPUPerItem: costSparseMergePerElem,
				// k-way merge of sorted runs: streaming, effectively serial
				// per destination (cursor chain), hence threads = 1.
			})
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
	defer rt.Span("ColMergeScatter").End()
	g := rt.G
	bounds := locale.BlockBounds(n, g.P)
	// segInd[dst] collects the sorted segments destined to dst, in source
	// order (crucial for deterministic first-wins resolution).
	segInd := make([][][]int, g.P)
	segVal := make([][][]T, g.P)
	for src := 0; src < g.P; src++ {
		run := inds[src]
		k := 0
		for dst := 0; dst < g.P && k < len(run); dst++ {
			lo := k
			for k < len(run) && run[k] < bounds[dst+1] {
				k++
			}
			if k == lo {
				continue
			}
			segInd[dst] = append(segInd[dst], run[lo:k:k])
			segVal[dst] = append(segVal[dst], vals[src][lo:k:k])
			if src != dst {
				bytes := payloadBytes(k - lo)
				intra := g.SameNode(src, dst)
				extra, err := retryExtra(rt, src, dst, rt.S.BulkTime(bytes, intra), "colmergescatter")
				if err != nil {
					return nil, nil, err
				}
				rt.S.Bulk(dst, bytes, intra)
				if extra > 0 {
					rt.S.Advance(dst, extra)
				}
			}
		}
	}
	outInd := make([][]int, g.P)
	outVal := make([][]T, g.P)
	for dst := 0; dst < g.P; dst++ {
		received := int64(0)
		for _, s := range segInd[dst] {
			received += int64(len(s))
		}
		outInd[dst], outVal[dst] = KWayMergeDedup(rt.Scratch, segInd[dst], segVal[dst], op, nil, nil)
		rt.S.Compute(dst, 1, sim.Kernel{
			Name:       "colmerge-scatter-merge",
			Items:      received,
			CPUPerItem: costSparseMergePerElem,
		})
	}
	return outInd, outVal, nil
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
