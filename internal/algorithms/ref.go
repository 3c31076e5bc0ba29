package algorithms

import (
	"math"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// This file holds the sequential references the distributed algorithms are
// tested against: textbook forms over a sparse.CSR that share no kernel
// with the code they check. None of them charge the performance model.

// RefBFS is a plain queue-based BFS used as ground truth in tests: it returns
// levels only (parents are not unique).
func RefBFS[T semiring.Number](a *sparse.CSR[T], source int) []int64 {
	n := a.NRows
	level := make([]int64, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, _ := a.Row(v)
		for _, w := range cols {
			if level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}

// RefSSSP is a textbook Bellman–Ford over edge lists, for testing.
func RefSSSP[T semiring.Number](a *sparse.CSR[T], source int) []T {
	n := a.NRows
	inf := semiring.MaxValue[T]()
	dist := make([]T, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			if dist[i] == inf {
				continue
			}
			cols, vals := a.Row(i)
			for k, j := range cols {
				if cand := dist[i] + vals[k]; cand < dist[j] {
					dist[j] = cand
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// RefCC is a textbook label search, for testing: visiting the vertices in
// increasing id order, each unlabelled one labels itself and everything it
// reaches along out-edges. A vertex's label is thus the smallest id that
// reaches it — on a symmetric matrix, the smallest vertex id in its
// component. It returns the labels and the number of distinct labels.
func RefCC[T semiring.Number](a *sparse.CSR[T]) ([]int64, int) {
	n := a.NRows
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = -1
	}
	components := 0
	var stack []int
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		components++
		labels[s] = int64(s)
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cols, _ := a.Row(v)
			for _, w := range cols {
				if labels[w] < 0 {
					labels[w] = int64(s)
					stack = append(stack, w)
				}
			}
		}
	}
	return labels, components
}

// RefPageRank is the plain power iteration over a's edges, for testing:
// r'[j] = (1-d)/n + d·(dangling/n + Σ_{i→j} r[i]/outdeg(i)), from the
// uniform vector, until the L1 change drops below tol or after maxIter
// rounds.
func RefPageRank[T semiring.Number](a *sparse.CSR[T], d, tol float64, maxIter int) []float64 {
	n := a.NRows
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for i := 0; i < n; i++ {
			if a.RowNNZ(i) == 0 {
				dangling += r[i]
			}
		}
		next := make([]float64, n)
		for i := range next {
			next[i] = (1-d)/float64(n) + d*dangling/float64(n)
		}
		for i := 0; i < n; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				next[j] += d * r[i] / float64(len(cols))
			}
		}
		delta := 0.0
		for i := range next {
			delta += math.Abs(next[i] - r[i])
		}
		r = next
		if delta < tol {
			break
		}
	}
	return r
}
