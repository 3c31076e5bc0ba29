package algorithms

import (
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// RefBetweenness computes exact betweenness with a direct Brandes
// implementation over adjacency lists, for testing.
func RefBetweenness[T semiring.Number](a *sparse.CSR[T]) []float64 {
	n := a.NRows
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		var stack []int
		pred := make([][]int, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			cols, _ := a.Row(v)
			for _, w := range cols {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					pred[w] = append(pred[w], v)
				}
			}
		}
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range pred[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}

// RefTriangleCount counts triangles by brute force over vertex triples
// reachable from the adjacency lists, for testing on small graphs.
func RefTriangleCount[T semiring.Number](a *sparse.CSR[T]) int64 {
	var count int64
	n := a.NRows
	for i := 0; i < n; i++ {
		ci, _ := a.Row(i)
		for _, j := range ci {
			if j <= i {
				continue
			}
			cj, _ := a.Row(j)
			for _, k := range cj {
				if k <= j {
					continue
				}
				if _, ok := a.Get(i, k); ok {
					count++
				}
			}
		}
	}
	return count
}

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
