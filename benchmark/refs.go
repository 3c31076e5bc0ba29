package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/sparse"
)

// Sequential references the benchmark owns (the repository has Ref* for BFS,
// SSSP, SpMSpV, SpMV and SpGEMM; PageRank, connected components and the
// directed triangle formula have none), the seeded input helpers, and the
// result comparisons shared by the library and serve checkers.

// failures tallies failed operations and keeps the first error for the log.
type failures struct {
	failed   int
	firstErr error
}

func (f *failures) fail(err error) {
	f.failed++
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// absorb folds another tally into f.
func (f *failures) absorb(o failures) {
	f.failed += o.failed
	if f.firstErr == nil {
		f.firstErr = o.firstErr
	}
}

// ones is a vector of n unit weights.
func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// subSeed derives an independent stream seed from the run seed and a tag, so
// every graph, vector and source pool has its own seed and -seed moves all
// of them.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return int64(h.Sum64() >> 1)
}

// pickSources draws k distinct vertices with at least one out-edge, so no
// traversal is trivially empty (every R-MAT graph has isolated vertices, and
// a pool with a varying share of them would make op cost depend on the seed).
func pickSources(a *sparse.CSR[float64], k int, seed int64) []int {
	var live []int
	for i := 0; i < a.NRows; i++ {
		if a.RowNNZ(i) > 0 {
			live = append(live, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if k > len(live) {
		k = len(live)
	}
	return live[:k]
}

// refPageRank is the Jacobi iteration r' = (1-d)/n + d·(dangling/n + (r ⊘
// outdeg)·A), stopping when the L1 change drops below tol.
func refPageRank(a *sparse.CSR[float64], d, tol float64, maxIter int) ([]float64, int) {
	n := a.NRows
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	iters := 0
	for iters < maxIter {
		iters++
		next := make([]float64, n)
		dangling := 0.0
		for i := 0; i < n; i++ {
			cols, _ := a.Row(i)
			if len(cols) == 0 {
				dangling += r[i]
				continue
			}
			share := r[i] / float64(len(cols))
			for _, j := range cols {
				next[j] += share
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		delta := 0.0
		for i := range next {
			next[i] = base + d*next[i]
			delta += math.Abs(next[i] - r[i])
		}
		r = next
		if delta < tol {
			break
		}
	}
	return r, iters
}

// refCC labels every vertex with the smallest vertex id that reaches it along
// directed edges (itself included) — the fixpoint of min-label propagation,
// which on a symmetric matrix is the connected-component label.
func refCC(a *sparse.CSR[float64]) []int64 {
	labels := make([]int64, a.NRows)
	for i := range labels {
		labels[i] = int64(i)
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < a.NRows; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				if labels[i] < labels[j] {
					labels[j] = labels[i]
					changed = true
				}
			}
		}
	}
	return labels
}

// refTriangles evaluates sum(A .* (A·A)) / 6 on the pattern of a: the number
// of (i, j, k) with edges i→j, j→k and i→k, over six. On a symmetric simple
// graph that is the triangle count; on a directed one it is what the masked
// SpGEMM formulation returns.
func refTriangles(a *sparse.CSR[float64]) int64 {
	mark := make([]int, a.NCols)
	for i := range mark {
		mark[i] = -1
	}
	var total int64
	for i := 0; i < a.NRows; i++ {
		ci, _ := a.Row(i)
		for _, k := range ci {
			mark[k] = i
		}
		for _, j := range ci {
			cj, _ := a.Row(j)
			for _, k := range cj {
				if mark[k] == i {
					total++
				}
			}
		}
	}
	return total / 6
}

func equalInt64s(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// closeFloats compares with a relative tolerance (and exact equality for
// infinities): distributed reductions add in a different order than the
// sequential reference.
func closeFloats(what string, got, want []float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		if math.Abs(got[i]-want[i]) > rel*math.Max(math.Abs(want[i]), 1e-300) {
			return fmt.Errorf("%s[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkBFS compares levels with the reference and, when parents are given,
// checks that they form a valid BFS tree: a reached vertex other than the
// source has a parent one level up with an edge to it.
func checkBFS(a *sparse.CSR[float64], source int, levels, parents, want []int64) error {
	if err := equalInt64s("levels", levels, want); err != nil {
		return err
	}
	if parents == nil {
		return nil
	}
	if len(parents) != len(levels) {
		return fmt.Errorf("parents: length %d, want %d", len(parents), len(levels))
	}
	for v, p := range parents {
		if v == source || levels[v] < 0 {
			if p != -1 {
				return fmt.Errorf("parents[%d] = %d, want -1", v, p)
			}
			continue
		}
		if p < 0 || int(p) >= len(levels) || levels[p] != levels[v]-1 {
			return fmt.Errorf("parents[%d] = %d is not one level above", v, p)
		}
		if _, ok := a.Get(int(p), v); !ok {
			return fmt.Errorf("parents[%d] = %d but there is no edge %d→%d", v, p, p, v)
		}
	}
	return nil
}

// checkSpMSpV accepts a pattern SpMSpV result (y ← xA, values = discovering
// row) against the reference pattern: the index sets must be identical, and —
// since with more than one worker the winning row is scheduling-dependent —
// every value must be *a* valid discovering row: stored in x, with an edge to
// the column.
func checkSpMSpV(a *sparse.CSR[float64], x *sparse.Vec[float64], ind []int, val []int64, wantInd []int) error {
	if len(ind) != len(wantInd) || len(val) != len(ind) {
		return fmt.Errorf("spmspv: %d indices / %d values, want %d", len(ind), len(val), len(wantInd))
	}
	for k, j := range ind {
		if j != wantInd[k] {
			return fmt.Errorf("spmspv: index[%d] = %d, want %d", k, j, wantInd[k])
		}
		i := int(val[k])
		if _, ok := x.Get(i); !ok {
			return fmt.Errorf("spmspv: y[%d] = %d is not a stored index of x", j, i)
		}
		if _, ok := a.Get(i, j); !ok {
			return fmt.Errorf("spmspv: y[%d] = %d but A[%d,%d] is empty", j, i, i, j)
		}
	}
	return nil
}
