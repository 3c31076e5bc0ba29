package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// KTruss computes the k-truss of a simple undirected graph (symmetric
// adjacency matrix, no self-loops): the maximal subgraph in which every edge
// participates in at least k-2 triangles. The GraphBLAS formulation iterates
// S = A .* (A·A) (per-edge triangle counts via masked SpGEMM), drops edges
// with support below k-2, and repeats until the edge set is stable.
//
// Returns the truss adjacency matrix (with entry values = triangle support
// of the surviving edges) and the number of pruning rounds.
func KTruss[T semiring.Number](a *sparse.CSR[T], k int) (*sparse.CSR[int64], int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: KTruss: matrix must be square")
	}
	if k < 3 {
		return nil, 0, fmt.Errorf("algorithms: KTruss: k must be >= 3, got %d", k)
	}
	minSupport := int64(k - 2)
	cur := structural(a, sparse.Ones[int64](nil, a.NNZ()))
	rounds := 0
	for {
		rounds++
		support, err := core.SpGEMMMasked(cur, cur, cur, semiring.PlusTimes[int64]())
		if err != nil {
			return nil, 0, err
		}
		// Keep edges whose support meets the threshold.
		next := sparse.NewCSR[int64](cur.NRows, cur.NCols)
		next.ColIdx = make([]int, 0, support.NNZ())
		next.Val = make([]T2, 0, support.NNZ())
		dropped := false
		for i := 0; i < support.NRows; i++ {
			cols, vals := support.Row(i)
			for c, j := range cols {
				if vals[c] >= minSupport {
					next.ColIdx = append(next.ColIdx, j)
					next.Val = append(next.Val, vals[c])
				} else {
					dropped = true
				}
			}
			next.RowPtr[i+1] = len(next.ColIdx)
		}
		// Rows of cur with no support entries at all also drop their edges.
		if next.NNZ() != cur.NNZ() {
			dropped = true
		}
		if !dropped {
			return support, rounds, nil
		}
		if next.NNZ() == 0 {
			return next, rounds, nil
		}
		// Pattern for the next round carries 1s; supports are recomputed.
		cur = next.Clone()
		for i := range cur.Val {
			cur.Val[i] = 1
		}
	}
}

// T2 aliases the truss value type for readability above.
type T2 = int64

// RefKTruss computes the k-truss by direct iteration over edge triangle
// counts, for testing on small graphs. Returns the surviving edge count
// (each undirected edge counted twice, as stored).
func RefKTruss[T semiring.Number](a *sparse.CSR[T], k int) int {
	// adjacency sets
	n := a.NRows
	adj := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		adj[i] = map[int]bool{}
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i != j {
				adj[i][j] = true
			}
		}
	}
	for {
		dropped := false
		for i := 0; i < n; i++ {
			for j := range adj[i] {
				// count common neighbors
				cnt := 0
				for w := range adj[i] {
					if w != j && adj[j][w] {
						cnt++
					}
				}
				if cnt < k-2 {
					delete(adj[i], j)
					delete(adj[j], i)
					dropped = true
				}
			}
		}
		if !dropped {
			break
		}
	}
	edges := 0
	for i := 0; i < n; i++ {
		edges += len(adj[i])
	}
	return edges
}
