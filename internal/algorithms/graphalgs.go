package algorithms

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// SSSP runs Bellman–Ford single-source shortest paths over the (min, +)
// semiring: dist' = dist ⊕ (dist × A), iterated to a fixed point (at most
// n-1 rounds). Edge weights are the stored matrix values; the distance to
// unreachable vertices is the semiring's +∞. As in SSSPDist, a round relaxes
// only from the vertices that improved in the round before (front).
func SSSP[T semiring.Number](a *sparse.CSR[T], source int) ([]T, int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: SSSP: matrix must be square")
	}
	n := a.NRows
	if source < 0 || source >= n {
		return nil, 0, fmt.Errorf("algorithms: SSSP: source %d out of range [0,%d)", source, n)
	}
	sr := semiring.MinPlus[T]()
	inf := sr.AddIdentity()
	dist := make([]T, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	front := append([]T(nil), dist...)
	rounds := 0
	for iter := 0; iter < n-1; iter++ {
		relaxed, err := core.SpMV(a, front, sr)
		if err != nil {
			return nil, 0, err
		}
		changed := false
		for i := range dist {
			front[i] = inf
			if relaxed[i] < dist[i] {
				dist[i], front[i] = relaxed[i], relaxed[i]
				changed = true
			}
		}
		rounds++
		if !changed {
			break
		}
	}
	return dist, rounds, nil
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

// ConnectedComponents labels the vertices of an undirected graph (symmetric
// adjacency matrix) by label propagation over the (min, first) semiring:
// every vertex repeatedly adopts the smallest label among itself and its
// neighbors until no label changes. Returns the per-vertex component label
// (the smallest vertex id in the component) and the number of components.
func ConnectedComponents[T semiring.Number](a *sparse.CSR[T]) ([]int64, int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: CC: matrix must be square")
	}
	n := a.NRows
	sr := semiring.MinFirst[int64]()
	inf := sr.AddIdentity()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	// Propagate over the pattern of a (values ignored: structural semiring).
	pattern := structural(a, sparse.Ones[int64](nil, a.NNZ()))
	front := append([]int64(nil), labels...) // the labels that changed last round
	for {
		prop, err := core.SpMV(pattern, front, sr)
		if err != nil {
			return nil, 0, err
		}
		changed := false
		for i := range labels {
			front[i] = inf
			if prop[i] != inf && prop[i] < labels[i] {
				labels[i], front[i] = prop[i], prop[i]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	components := 0
	for i, l := range labels {
		if l == int64(i) {
			components++
		}
	}
	return labels, components, nil
}

// structural returns the pattern matrix of a — every stored entry replaced by
// U(1) — for structural-semiring algorithms. It owns no storage: RowPtr and
// ColIdx are a's own arrays and Val is the first nnz(a) entries of ones
// (sparse.Ones), which is safe because nothing writes a structural operand in
// place (DESIGN.md §15).
func structural[U, T semiring.Number](a *sparse.CSR[T], ones []U) *sparse.CSR[U] {
	return &sparse.CSR[U]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: a.RowPtr,
		ColIdx: a.ColIdx,
		Val:    ones[:a.NNZ():a.NNZ()],
	}
}

// PageRank computes the PageRank vector of the directed graph a with damping
// factor d, iterating r' = (1-d)/n + d·(r ⊘ outdeg)·A until the L1 change
// drops below tol (or maxIter rounds). Dangling-vertex mass is redistributed
// uniformly. Returns the rank vector and the iteration count.
func PageRank[T semiring.Number](a *sparse.CSR[T], d float64, tol float64, maxIter int) ([]float64, int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: PageRank: matrix must be square")
	}
	n := a.NRows
	if n == 0 {
		return nil, 0, nil
	}
	outdeg := make([]float64, n)
	for i := 0; i < n; i++ {
		outdeg[i] = float64(a.RowNNZ(i))
	}
	pattern := structural(a, sparse.Ones[float64](nil, a.NNZ()))
	sr := semiring.PlusTimes[float64]()
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters++
		x := make([]float64, n)
		dangling := 0.0
		for i := range x {
			if outdeg[i] > 0 {
				x[i] = r[i] / outdeg[i]
			} else {
				dangling += r[i]
			}
		}
		spread, err := core.SpMV(pattern, x, sr)
		if err != nil {
			return nil, 0, err
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		delta := 0.0
		next := make([]float64, n)
		for i := range next {
			next[i] = base + d*spread[i]
			delta += math.Abs(next[i] - r[i])
		}
		r = next
		if delta < tol {
			break
		}
	}
	return r, iters, nil
}

// TriangleCount counts the triangles of a simple undirected graph given its
// symmetric adjacency matrix, with the masked-SpGEMM formulation
// sum(A .* (A·A)) / 6 over the structural (+,×) semiring.
func TriangleCount[T semiring.Number](a *sparse.CSR[T]) (int64, error) {
	if a.NRows != a.NCols {
		return 0, fmt.Errorf("algorithms: TriangleCount: matrix must be square")
	}
	p := structural(a, sparse.Ones[int64](nil, a.NNZ()))
	c, err := core.SpGEMMMasked(p, p, p, semiring.PlusTimes[int64]())
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range c.Val {
		total += v
	}
	return total / 6, nil
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

// TwoHopCounts returns the total number of directed two-edge paths in the
// graph: sum of the entries of pattern(A)·pattern(A) over the arithmetic
// semiring. A small demonstration that the same SpGEMM machinery answers
// counting queries when the semiring changes.
func TwoHopCounts[T semiring.Number](a *sparse.CSR[T]) (int64, error) {
	if a.NRows != a.NCols {
		return 0, fmt.Errorf("algorithms: TwoHopCounts: matrix must be square")
	}
	p := structural(a, sparse.Ones[int64](nil, a.NNZ()))
	c, err := core.SpGEMM(p, p, semiring.PlusTimes[int64]())
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range c.Val {
		total += v
	}
	return total, nil
}
