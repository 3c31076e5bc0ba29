package algorithms

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// BetweennessCentrality computes exact betweenness centrality with Brandes'
// algorithm expressed GraphBLAS-style: a forward BFS sweep accumulating
// shortest-path counts (sigma) level by level, then a backward sweep
// accumulating dependencies. sources selects the vertices to run from (all
// vertices give exact BC; a sample gives the usual approximation). The graph
// is treated as unweighted and directed (use a symmetric matrix for
// undirected BC, which then double-counts as is conventional).
func BetweennessCentrality[T semiring.Number](a *sparse.CSR[T], sources []int) ([]float64, error) {
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("algorithms: BC: adjacency matrix must be square")
	}
	n := a.NRows
	bc := make([]float64, n)
	at := a.ToCSC()

	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("algorithms: BC: source %d out of range [0,%d)", s, n)
		}
		// Forward phase: levels + sigma (number of shortest paths).
		level := make([]int64, n)
		for i := range level {
			level[i] = -1
		}
		sigma := make([]float64, n)
		level[s] = 0
		sigma[s] = 1
		frontier := []int{s}
		var levels [][]int
		for depth := int64(1); len(frontier) > 0; depth++ {
			levels = append(levels, frontier)
			var next []int
			seen := make(map[int]bool)
			for _, u := range frontier {
				cols, _ := a.Row(u)
				for _, v := range cols {
					if level[v] < 0 {
						level[v] = depth
						if !seen[v] {
							seen[v] = true
							next = append(next, v)
						}
					}
					if level[v] == depth {
						sigma[v] += sigma[u]
					}
				}
			}
			sparse.RadixSortInts(next)
			frontier = next
		}
		// Backward phase: dependency accumulation from the deepest level.
		delta := make([]float64, n)
		for li := len(levels) - 1; li >= 1; li-- {
			for _, v := range levels[li] {
				rows, _ := at.Col(v)
				for _, u := range rows {
					if level[u] == level[v]-1 && sigma[v] > 0 {
						delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if v != s && level[v] >= 0 {
				bc[v] += delta[v]
			}
		}
	}
	return bc, nil
}
