package algorithms

// The SpGEMM-powered workloads the distributed Sparse SUMMA unlocks
// (CombBLAS-2.0's headline applications): triangle counting as a masked
// A·A, k-truss as iterated masked SpGEMM with pruning, and multi-source BFS
// as repeated frontier-matrix × adjacency products over the boolean
// semiring. All three run entirely on 2-D block-distributed matrices — no
// gather-to-one-locale step — and the triangle/k-truss pair recovers from a
// mid-broadcast locale loss under the runtime's recovery policy, exactly
// like the BFS/SSSP/PageRank family.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// structural returns the pattern matrix of one block a — every stored entry
// replaced by U(1) — for distStructural. It owns no storage: RowPtr and
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

// distStructural returns the pattern matrix of a — every stored entry
// replaced by U(1) — block by block on a's own distribution: no global
// rebuild and no new storage, each block sharing its source block's index
// arrays and the arena's one read-only ones slice (see structural). When a
// carries replicas so does the result, so failover recovery stays available
// on the derived matrix.
func distStructural[U, T semiring.Number](rt *locale.Runtime, a *dist.Mat[T]) *dist.Mat[U] {
	out := &dist.Mat[U]{
		G:        a.G,
		NRows:    a.NRows,
		NCols:    a.NCols,
		RowBands: append([]int(nil), a.RowBands...),
		ColBands: append([]int(nil), a.ColBands...),
		Blocks:   make([]*sparse.CSR[U], len(a.Blocks)),
	}
	most := 0
	for _, b := range a.Blocks {
		most = max(most, b.NNZ())
	}
	ones := sparse.Ones[U](rt.Scratch, most)
	for l, b := range a.Blocks {
		out.Blocks[l] = structural(b, ones)
	}
	if a.Replicated() {
		dist.ReplicateMat(rt, out)
	}
	return out
}

// TriangleCountDist counts the triangles of a simple undirected graph whose
// symmetric adjacency matrix is 2-D block-distributed, with the masked
// distributed SUMMA formulation sum(A .* (A·A)) / 6. A locale lost
// mid-broadcast is recovered under the runtime's recovery policy and the
// (stateless) product is rerun; the result matches the shared-memory
// TriangleCount bit for bit.
func TriangleCountDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T]) (int64, error) {
	if a.NRows != a.NCols {
		return 0, fmt.Errorf("algorithms: TriangleCountDist: matrix must be square")
	}
	p := distStructural[int64](rt, a)
	var total int64
	_, err := runRounds(rt, "TriangleCountDist", &p, checkpoint{}, func(int) (bool, error) {
		c, err := core.SpGEMMDistMasked(rt, p, p, p, semiring.PlusTimes[int64]())
		if err != nil {
			return false, err
		}
		for _, blk := range c.Blocks {
			for _, v := range blk.Val {
				total += v
			}
		}
		return true, nil
	})
	return total / 6, err
}

// KTrussDist computes the k-truss of a distributed symmetric adjacency
// matrix with the same fixpoint as the shared-memory KTruss — iterate
// S = A .* (A·A), drop edges with support < k−2, repeat — but with every
// product a distributed masked SUMMA and every prune a block-local pass.
// Round count and surviving supports match KTruss exactly. A single locale
// loss is recovered and the interrupted round rerun.
func KTrussDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], k int) (*dist.Mat[int64], int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: KTrussDist: matrix must be square")
	}
	if k < 3 {
		return nil, 0, fmt.Errorf("algorithms: KTrussDist: k must be >= 3, got %d", k)
	}
	minSupport := int64(k - 2)
	cur := distStructural[int64](rt, a)
	var out *dist.Mat[int64]
	rounds, err := runRounds(rt, "KTrussDist", &cur, checkpoint{}, func(int) (bool, error) {
		support, err := core.SpGEMMDistMasked(rt, cur, cur, cur, semiring.PlusTimes[int64]())
		if err != nil {
			return false, err
		}
		// Block-local prune: keep edges whose support meets the threshold.
		next := &dist.Mat[int64]{
			G:        cur.G,
			NRows:    cur.NRows,
			NCols:    cur.NCols,
			RowBands: append([]int(nil), cur.RowBands...),
			ColBands: append([]int(nil), cur.ColBands...),
			Blocks:   make([]*sparse.CSR[int64], len(cur.Blocks)),
		}
		dropped := false
		for l, sb := range support.Blocks {
			nb := sparse.NewCSR[int64](sb.NRows, sb.NCols)
			for i := 0; i < sb.NRows; i++ {
				cols, vals := sb.Row(i)
				for c, j := range cols {
					if vals[c] >= minSupport {
						nb.ColIdx = append(nb.ColIdx, j)
						nb.Val = append(nb.Val, vals[c])
					} else {
						dropped = true
					}
				}
				nb.RowPtr[i+1] = len(nb.ColIdx)
			}
			next.Blocks[l] = nb
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name: "ktruss-prune", Items: int64(sb.NNZ()), CPUPerItem: 6, BytesPerItem: 16,
			})
		}
		if next.NNZ() != cur.NNZ() {
			dropped = true
		}
		if !dropped {
			out = support
			return true, nil
		}
		if next.NNZ() == 0 {
			out = next
			return true, nil
		}
		// Pattern for the next round carries 1s; supports are recomputed.
		for _, nb := range next.Blocks {
			for i := range nb.Val {
				nb.Val[i] = 1
			}
		}
		cur = next
		return false, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, rounds, nil
}

// MSBFSDist runs breadth-first search from every source at once as SpGEMM
// over the boolean (∨,∧) semiring: the frontier is an s×n matrix with one
// row per source, each round multiplies it by the adjacency pattern with
// the distributed SUMMA, and newly reached (source, vertex) pairs are
// recorded block-locally. Returns per-source levels (−1 = unreached) and
// the round count.
func MSBFSDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], sources []int) ([][]int64, int, error) {
	n := a.NRows
	if a.NCols != n {
		return nil, 0, fmt.Errorf("algorithms: MSBFSDist: matrix must be square")
	}
	if len(sources) == 0 {
		return nil, 0, fmt.Errorf("algorithms: MSBFSDist: no sources")
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, 0, fmt.Errorf("algorithms: MSBFSDist: source %d outside [0,%d)", s, n)
		}
	}
	p := distStructural[int64](rt, a)
	ns := len(sources)

	// Initial frontier: F[k][sources[k]] = 1.
	rows := make([]int, ns)
	vals := make([]int64, ns)
	for k := range sources {
		rows[k] = k
		vals[k] = 1
	}
	f0, err := sparse.CSRFromTriplets(ns, n, rows, append([]int(nil), sources...), vals)
	if err != nil {
		return nil, 0, err
	}
	f := dist.MatFromCSR(rt, f0)

	// Per-locale visited flags and levels over the block's (source, vertex)
	// window; the product's blocks live on the same grid cells, so marking
	// and filtering never leave the locale.
	g := rt.G
	visited := make([][]bool, g.P)
	lvl := make([][]int64, g.P)
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		sb := f.RowBands[r+1] - f.RowBands[r]
		nb := f.ColBands[c+1] - f.ColBands[c]
		visited[l] = make([]bool, sb*nb)
		lvl[l] = make([]int64, sb*nb)
		for i := range lvl[l] {
			lvl[l][i] = -1
		}
	}
	// mark records the newly reached pairs of m at level and compacts every
	// block down to them in place: the frontier blocks belong to this run (the
	// initial cut, then fresh SUMMA products), so no per-round copy is built.
	mark := func(m *dist.Mat[int64], level int64) int {
		total := 0
		for l, blk := range m.Blocks {
			_, cc := g.Coords(l)
			nb := m.ColBands[cc+1] - m.ColBands[cc]
			nnz, kept, lo := blk.NNZ(), 0, 0
			for i := 0; i < blk.NRows; i++ {
				hi := blk.RowPtr[i+1]
				for _, j := range blk.ColIdx[lo:hi] {
					if at := i*nb + j; !visited[l][at] {
						visited[l][at] = true
						lvl[l][at] = level
						blk.ColIdx[kept] = j
						blk.Val[kept] = 1
						kept++
					}
				}
				blk.RowPtr[i+1] = kept
				lo = hi
			}
			blk.ColIdx, blk.Val = blk.ColIdx[:kept], blk.Val[:kept]
			total += kept
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name: "msbfs-mark", Items: int64(nnz) + 1, CPUPerItem: 5, BytesPerItem: 9,
			})
		}
		return total
	}
	frontier := mark(f, 0)
	rounds := 0
	sr := semiring.LOrLAnd[int64]()
	for frontier > 0 {
		if err := rt.Canceled(); err != nil {
			return nil, 0, fmt.Errorf("algorithms: MSBFSDist: %w", err)
		}
		rounds++
		nf, err := core.SpGEMMDist(rt, f, p, sr)
		if err != nil {
			return nil, 0, err
		}
		frontier = mark(nf, int64(rounds))
		f = nf
	}

	levels := make([][]int64, ns)
	for k := range levels {
		levels[k] = make([]int64, n)
	}
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		lo, hi := f.RowBands[r], f.RowBands[r+1]
		clo, chi := f.ColBands[c], f.ColBands[c+1]
		nb := chi - clo
		for i := lo; i < hi; i++ {
			for j := clo; j < chi; j++ {
				levels[i][j] = lvl[l][(i-lo)*nb+(j-clo)]
			}
		}
	}
	return levels, rounds, nil
}
