package algorithms

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// The distributed iterative algorithms in this file are fault tolerant: they
// run on the one round loop (runRounds), which under a fault plan snapshots
// their iteration state every checkpointInterval rounds, and on a permanent
// locale loss (surfaced by the collectives as fault.ErrLocaleLost) degrades
// the runtime onto the survivors under the runtime's fault.RecoveryPolicy
// (core.Recover): redistribute and failover roll back to the last checkpoint
// and replay, best effort drops the lost block and reruns the round. Because
// the logical grid shape — and with it every data layout and reduction order
// — is preserved across the loss, a replayed computation under the exact
// policies reproduces the fault-free results bit for bit; only the modeled
// clock shows the failure.

// SSSPDist runs Bellman–Ford single-source shortest paths over a 2-D
// block-distributed matrix: each round is one distributed SpMV over the
// (min, +) semiring followed by an elementwise min with the current
// distances and an all-reduce of the change flag.
//
// A round relaxes only from the vertices that improved in the round before:
// its input front holds their distances and the additive identity, whose rows
// the multiply skips, everywhere else. An unchanged vertex offered its distance
// in the round after it last improved, so distances and round count are those
// of relaxing from every row.
func SSSPDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int) ([]T, int, error) {
	defer rt.Span("SSSPDist").End()
	return ssspDistInit(rt, a, source, nil)
}

// ssspDistInit is SSSPDist with an optional warm-start distance vector (len
// n; copied, never written), which seeds both the distances and the first
// round's front, with the source's distance set to 0. Relaxation only ever
// lowers a distance, so from any vector whose finite entries are lengths of
// paths in a — the previous answer, when the epochs in between only inserted
// edges or lowered weights — it converges to the same fixpoint as from
// infinity, in fewer rounds: one when nothing changed.
func ssspDistInit[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int, init []T) ([]T, int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: SSSPDist: matrix must be square")
	}
	n := a.NRows
	if source < 0 || source >= n {
		return nil, 0, fmt.Errorf("algorithms: SSSPDist: source %d out of range [0,%d)", source, n)
	}
	sr := semiring.MinPlus[T]()
	inf := sr.AddIdentity()
	d0 := sparse.NewDenseFill[T](n, inf)
	if len(init) == n {
		copy(d0.Data, init)
	}
	d0.Data[source] = 0
	if n == 1 {
		return d0.Data, 0, nil // no edge to relax
	}
	dcur := dist.DenseVecFromDense(rt, d0)
	front := dist.DenseVecOver(rt, d0.Data)

	// A rollback restores the checkpointed distances with every vertex active
	// again: a superset of the changed set, so exact.
	var ckptD []T
	ck := checkpoint{
		bytes: int64(n) * 8,
		save:  func() { ckptD = append(ckptD[:0], dcur.ToDense().Data...) },
		load: func() {
			dcur.Load(ckptD)
			front.Load(ckptD)
		},
	}
	changedFlags := make([]int64, rt.G.P)
	rounds, err := runRounds(rt, "SSSPDist", &a, ck, func(iter int) (bool, error) {
		clear(changedFlags)
		// The relaxation (RecipeSpMVUpdate): the elementwise min folds into
		// the SpMV's final distribution pass, so the relaxed vector is never
		// materialized. Collective errors surface before any update, so
		// recovery is exact.
		err := core.FusedSpMVUpdate(rt, a, front, sr, func(l, lo int, vals []T) {
			off := lo - dcur.Bounds[l]
			cur, next := dcur.Loc[l][off:off+len(vals)], front.Loc[l][off:off+len(vals)]
			for i, v := range vals {
				next[i] = inf
				if v < cur[i] {
					cur[i], next[i] = v, v
					changedFlags[l] = 1
				}
			}
		})
		if err != nil {
			return false, err
		}
		if !rt.Fusion {
			// Eager execution runs the min as a coforall of its own: its spawn
			// and barrier are the whole of its charge.
			rt.S.CoforallSpawn()
			rt.S.Barrier()
		}
		changed, err := comm.AllReduce(rt, changedFlags, semiring.MaxMonoid[int64]())
		return changed == 0 || iter+1 == n-1, err
	})
	if err != nil {
		return nil, 0, err
	}
	return dcur.ToDense().Data, rounds, nil
}

// PageRankDist computes PageRank over a 2-D block-distributed matrix with
// distributed SpMV iterations; dangling mass and the L1 convergence test are
// combined with all-reduces.
func PageRankDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], d, tol float64, maxIter int) ([]float64, int, error) {
	defer rt.Span("PageRankDist").End()
	return prDistInit(rt, a, d, tol, maxIter, nil)
}

// prDistInit is PageRankDist with an optional warm-start rank vector: the
// power iteration converges to the same fixpoint from any probability
// distribution, so the streaming path seeds it with the previous epoch's
// ranks and typically saves iterations.
func prDistInit[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], d, tol float64, maxIter int, init []float64) ([]float64, int, error) {
	if a.NRows != a.NCols {
		return nil, 0, fmt.Errorf("algorithms: PageRankDist: matrix must be square")
	}
	n := a.NRows
	if n == 0 {
		return nil, 0, nil
	}
	// The iteration runs on a's pattern, taken block by block (and carrying
	// a's replication, so failover still applies); out-degrees are the block
	// row lengths summed across each grid row.
	pm := distStructural[float64](rt, a)
	outdeg := make([]float64, n)
	for l, blk := range a.Blocks {
		r, _ := a.G.Coords(l)
		for i := 0; i < blk.NRows; i++ {
			outdeg[a.RowBands[r]+i] += float64(blk.RowNNZ(i))
		}
	}
	sr := semiring.PlusTimes[float64]()

	r := make([]float64, n)
	if len(init) == n {
		copy(r, init)
	} else {
		for i := range r {
			r[i] = 1 / float64(n)
		}
	}
	if maxIter <= 0 {
		return r, 0, nil
	}
	// The spread vector r ⊘ outdeg is written straight into its distributed
	// form, and the two rank buffers swap roles every iteration: nothing
	// n-long is allocated per round.
	xd := dist.NewDenseVec[float64](rt, n)
	next := make([]float64, n)
	var ckptR []float64
	ck := checkpoint{
		bytes: int64(n) * 8,
		save:  func() { ckptR = append(ckptR[:0], r...) },
		load:  func() { r = append(r[:0], ckptR...) },
	}
	danglingParts := make([]float64, rt.G.P)
	deltaParts := make([]float64, rt.G.P)
	iters, err := runRounds(rt, "PageRankDist", &pm, ck, func(iter int) (bool, error) {
		clear(danglingParts)
		clear(deltaParts)
		for l, xl := range xd.Loc {
			lo := xd.Bounds[l]
			for i := range xl {
				if od := outdeg[lo+i]; od > 0 {
					xl[i] = r[lo+i] / od
				} else {
					xl[i] = 0
					danglingParts[l] += r[lo+i]
				}
			}
		}
		dangling, err := comm.AllReduce(rt, danglingParts, semiring.PlusMonoid[float64]())
		if err != nil {
			return false, err
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		// The rank update (RecipeSpMVUpdate) consumes the spread vector run
		// by run as the SpMV distributes it.
		err = core.FusedSpMVUpdate(rt, pm, xd, sr, func(l, lo int, vals []float64) {
			nx, cur := next[lo:lo+len(vals)], r[lo:lo+len(vals)]
			delta := deltaParts[l]
			for i, v := range vals {
				nx[i] = base + d*v
				delta += math.Abs(nx[i] - cur[i])
			}
			deltaParts[l] = delta
		})
		if err != nil {
			return false, err
		}
		r, next = next, r
		delta, err := comm.AllReduce(rt, deltaParts, semiring.PlusMonoid[float64]())
		return delta < tol || iter+1 == maxIter, err
	})
	if err != nil {
		return nil, 0, err
	}
	return r, iters, nil
}

// CCDist runs label-propagation connected components over a distributed
// matrix with distributed min-first SpMV rounds. As in SSSPDist a round
// propagates only the labels that changed in the round before.
func CCDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T]) ([]int64, int, error) {
	defer rt.Span("CCDist").End()
	labels, comps, _, err := ccDistInit(rt, a, nil)
	return labels, comps, err
}

// ccDistInit is CCDist with an optional warm-start label vector, returning
// the round count alongside the labels. Min-label propagation is a monotone
// fixpoint: any labeling where labels[i] names a vertex reachable from i
// converges to the true component minima, so the streaming path seeds it with
// the previous epoch's labels — valid whenever the epochs in between only
// added edges (reachability never shrank). A warm start holding a label that
// is no vertex id is ignored.
func ccDistInit[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], init []int64) ([]int64, int, int, error) {
	if a.NRows != a.NCols {
		return nil, 0, 0, fmt.Errorf("algorithms: CCDist: matrix must be square")
	}
	n := a.NRows
	pm := distStructural[int64](rt, a)
	sr := semiring.MinFirst[int64]()
	inf := sr.AddIdentity()

	labels := make([]int64, n)
	if len(init) == n && allVertexIDs(init) {
		copy(labels, init)
	} else {
		for i := range labels {
			labels[i] = int64(i)
		}
	}
	// The round's input: every label at first (any warm start is valid), then
	// the labels that changed last round and inf everywhere else.
	ld := dist.DenseVecOver(rt, append([]int64(nil), labels...))
	var ckptL []int64
	ck := checkpoint{
		bytes: int64(n) * 8,
		save:  func() { ckptL = append(ckptL[:0], labels...) },
		load: func() {
			labels = append(labels[:0], ckptL...)
			ld.Load(labels)
		},
	}
	changedParts := make([]int64, rt.G.P)
	rounds, err := runRounds(rt, "CCDist", &pm, ck, func(int) (bool, error) {
		clear(changedParts)
		// Label propagation (RecipeSpMVUpdate): the min-label update consumes
		// the propagated vector in place of building it, and writes the next
		// round's input as it goes.
		err := core.FusedSpMVUpdate(rt, pm, ld, sr, func(l, lo int, vals []int64) {
			off := lo - ld.Bounds[l]
			next, cur := ld.Loc[l][off:off+len(vals)], labels[lo:lo+len(vals)]
			for i, v := range vals {
				next[i] = inf
				if v != inf && v < cur[i] {
					cur[i], next[i] = v, v
					changedParts[l] = 1
				}
			}
		})
		if err != nil {
			return false, err
		}
		changed, err := comm.AllReduce(rt, changedParts, semiring.MaxMonoid[int64]())
		return changed == 0, err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	// A warm start can land on labels that are component-consistent but not
	// the component minima (the minimum vertex never propagates to itself);
	// components are counted over the distinct labels instead. Labels are
	// vertex ids, so a flag per vertex counts them.
	seen := make([]bool, n)
	comps := 0
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			comps++
		}
	}
	return labels, comps, rounds, nil
}

// allVertexIDs reports whether every label is a vertex id, in [0, len(labels)).
func allVertexIDs(labels []int64) bool {
	for _, l := range labels {
		if uint64(l) >= uint64(len(labels)) {
			return false
		}
	}
	return true
}
