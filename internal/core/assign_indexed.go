package core

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// The paper implements only a restricted Assign whose operand domains match.
// This file provides the general GraphBLAS assign for vectors — A(I) = B,
// the Matlab-notation primitive the paper describes as "very powerful" and
// defers, citing its O((nnz(A)+nnz(B))/√p) communication — together with its
// dual Extract in distributed form.

// AssignIndexedDist performs a(I) = b on a distributed vector: the (index,
// value) updates are routed to their owner locales in per-destination
// batches — the O(nnz/√p)-style batched exchange the paper's complexity
// discussion anticipates — and each locale rebuilds its local block.
func AssignIndexedDist[T semiring.Number](rt *locale.Runtime, a *dist.SpVec[T], indices []int, b *dist.SpVec[T]) error {
	defer rt.Span("AssignIndexedDist").End()
	if b.N != len(indices) {
		return fmt.Errorf("core: AssignIndexedDist: b has capacity %d for %d indices", b.N, len(indices))
	}
	g := rt.G
	rt.S.CoforallSpawn()

	// Route updates (and deletions) by destination owner.
	type update struct {
		pos    int
		val    T
		stored bool
	}
	perDest := make([][]update, g.P)
	seen := make(map[int]bool, len(indices))
	bv := b.ToVec()
	for k, i := range indices {
		if i < 0 || i >= a.N {
			return fmt.Errorf("core: AssignIndexedDist: index %d out of range [0,%d)", i, a.N)
		}
		if seen[i] {
			return fmt.Errorf("core: AssignIndexedDist: duplicate index %d", i)
		}
		seen[i] = true
		owner := a.Owner(i)
		v, ok := bv.Get(k)
		perDest[owner] = append(perDest[owner], update{pos: i, val: v, stored: ok})
	}
	// Charge the batched exchange: one bulk message per nonempty
	// (source-side aggregate -> destination) pair; we approximate the source
	// side as uniformly spread, so each destination receives ~P batches.
	for dest := 0; dest < g.P; dest++ {
		if len(perDest[dest]) == 0 {
			continue
		}
		rt.S.Bulk(dest, int64(len(perDest[dest]))*16, false)
	}

	// Apply per destination locale.
	for dest := 0; dest < g.P; dest++ {
		ups := perDest[dest]
		if len(ups) == 0 {
			continue
		}
		lv := a.Loc[dest]
		newVal := make(map[int]T, len(ups))
		deleted := make(map[int]bool, len(ups))
		targeted := make([]int, 0, len(ups))
		for _, u := range ups {
			if u.stored {
				newVal[u.pos] = u.val
				targeted = append(targeted, u.pos)
			} else {
				deleted[u.pos] = true
			}
		}
		sparse.RadixSortInts(targeted)
		merged := sparse.NewVec[T](a.N)
		ai, bi := 0, 0
		for ai < len(lv.Ind) || bi < len(targeted) {
			switch {
			case bi >= len(targeted) || (ai < len(lv.Ind) && lv.Ind[ai] < targeted[bi]):
				i := lv.Ind[ai]
				if _, isNew := newVal[i]; !isNew && !deleted[i] {
					merged.Ind = append(merged.Ind, i)
					merged.Val = append(merged.Val, lv.Val[ai])
				}
				ai++
			case ai >= len(lv.Ind) || targeted[bi] < lv.Ind[ai]:
				i := targeted[bi]
				merged.Ind = append(merged.Ind, i)
				merged.Val = append(merged.Val, newVal[i])
				bi++
			default:
				i := targeted[bi]
				merged.Ind = append(merged.Ind, i)
				merged.Val = append(merged.Val, newVal[i])
				ai++
				bi++
			}
		}
		a.Loc[dest] = merged
		rt.S.Compute(dest, rt.Threads, sim.Kernel{
			Name:         "assign-indexed-merge",
			Items:        int64(len(lv.Ind) + len(ups)),
			CPUPerItem:   40,
			BytesPerItem: 24,
		})
	}
	rt.S.Barrier()
	return nil
}

// ExtractDist returns the subvector a(I) as a distributed vector of capacity
// len(I): output position k holds a[I[k]] when stored. Lookups are routed to
// owners in batches.
func ExtractDist[T semiring.Number](rt *locale.Runtime, a *dist.SpVec[T], indices []int) (*dist.SpVec[T], error) {
	defer rt.Span("ExtractDist").End()
	g := rt.G
	rt.S.CoforallSpawn()
	out := dist.NewSpVec[T](rt, len(indices))
	perOwner := make([]int64, g.P)
	for k, i := range indices {
		if i < 0 || i >= a.N {
			return nil, fmt.Errorf("core: ExtractDist: index %d out of range [0,%d)", i, a.N)
		}
		owner := a.Owner(i)
		perOwner[owner]++
		if v, ok := a.Loc[owner].Get(i); ok {
			dst := out.Owner(k)
			lv := out.Loc[dst]
			lv.Ind = append(lv.Ind, k)
			lv.Val = append(lv.Val, v)
		}
	}
	for l := 0; l < g.P; l++ {
		if perOwner[l] > 0 {
			rt.S.Bulk(l, perOwner[l]*16, false)
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:       "extract-lookup",
				Items:      perOwner[l],
				CPUPerItem: 50 * log2ceil(a.Loc[l].NNZ()+1),
			})
		}
	}
	// Output positions arrive in k order per destination, but appends above
	// interleave owners; restore sortedness.
	for _, lv := range out.Loc {
		if !sortedInts(lv.Ind) {
			sortVecByIndex(lv)
		}
	}
	rt.S.Barrier()
	return out, nil
}

func sortedInts(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// sortVecByIndex sorts a vector's entries by index, carrying values along.
func sortVecByIndex[T semiring.Number](v *sparse.Vec[T]) {
	perm := make([]int, len(v.Ind))
	for k := range perm {
		perm[k] = k
	}
	sort.Slice(perm, func(a, b int) bool { return v.Ind[perm[a]] < v.Ind[perm[b]] })
	ind := make([]int, len(v.Ind))
	val := make([]T, len(v.Val))
	for k, p := range perm {
		ind[k] = v.Ind[p]
		val[k] = v.Val[p]
	}
	v.Ind = ind
	v.Val = val
}
