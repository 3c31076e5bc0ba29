package algorithms

import (
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
)

// The streaming variants run the iterative algorithms over the committed
// epochs of a dist.EpochMat: each call pins the committed snapshot (one
// atomic load — never blocked by concurrent ingest, never a torn merge) and
// warm-starts from the previous epoch's result where the mathematics allows:
//
//   - connected components: min-label propagation is a monotone fixpoint, so
//     the previous labels are a valid starting point whenever the epoch
//     interval only inserted edges (detected via the cumulative tombstone
//     counter); a delete forces a cold start.
//   - PageRank: the power iteration converges to the same fixpoint from any
//     starting distribution, so the previous ranks always carry over.
//   - single-source shortest paths: with only inserts and lowered weights in
//     the interval, every path of the earlier epoch is still there at no
//     greater length, so the previous distances are upper bounds that
//     relaxation lowers to the same fixpoint (detected via the tombstone and
//     raise counters of dist.Stamp); a delete or a raise forces a cold start.

// CCState carries incremental connected-components state across epochs.
type CCState struct {
	// Epoch is the committed epoch the labels were computed at.
	Epoch uint64
	// Labels assigns every vertex the label of its component (all vertices of
	// one component share a label; a cold start yields the component minima).
	Labels []int64
	// Components is the number of connected components.
	Components int
	// Rounds is how many propagation rounds the last refresh took.
	Rounds int
	// deletes pins the cumulative tombstone count at Epoch, so the next
	// refresh can tell whether the interval was insert-only.
	deletes uint64
}

// IncrementalCC refreshes connected components at em's committed epoch.
// With a prev state from an earlier epoch it warm-starts from the previous
// labels when every epoch in between was insert-only (label propagation then
// only has to flood the new edges — typically far fewer rounds than a cold
// start) and falls back to a cold start when edges were deleted. A prev
// already at the committed epoch is returned unchanged.
func IncrementalCC[T semiring.Number](rt *locale.Runtime, em *dist.EpochMat[T], prev *CCState) (*CCState, error) {
	defer rt.Span("IncrementalCC").End()
	mat, stamp := em.Pinned()
	epoch, dels := stamp.Epoch, stamp.Deletes
	if prev != nil && prev.Epoch == epoch && prev.deletes == dels && len(prev.Labels) == mat.NRows {
		return prev, nil
	}
	var init []int64
	if prev != nil && len(prev.Labels) == mat.NRows && prev.deletes == dels {
		init = prev.Labels
	}
	labels, comps, rounds, err := ccDistInit(rt, mat, init)
	if err != nil {
		return nil, err
	}
	return &CCState{Epoch: epoch, Labels: labels, Components: comps, Rounds: rounds, deletes: dels}, nil
}

// PageRankState carries streaming PageRank state across epochs.
type PageRankState struct {
	// Epoch is the committed epoch the ranks were computed at.
	Epoch uint64
	// Ranks is the PageRank vector at Epoch.
	Ranks []float64
	// Iters is how many power iterations the last refresh took.
	Iters int
}

// StreamingPageRank refreshes PageRank at em's committed epoch, warm-started
// from the previous epoch's ranks (valid under both inserts and deletes; the
// closer the graphs, the fewer iterations to re-converge). A prev already at
// the committed epoch is returned unchanged.
func StreamingPageRank[T semiring.Number](rt *locale.Runtime, em *dist.EpochMat[T], d, tol float64, maxIter int, prev *PageRankState) (*PageRankState, error) {
	defer rt.Span("StreamingPageRank").End()
	mat, epoch := em.Snapshot()
	if prev != nil && prev.Epoch == epoch && len(prev.Ranks) == mat.NRows {
		return prev, nil
	}
	var init []float64
	if prev != nil && len(prev.Ranks) == mat.NRows {
		init = prev.Ranks
	}
	ranks, iters, err := prDistInit(rt, mat, d, tol, maxIter, init)
	if err != nil {
		return nil, err
	}
	return &PageRankState{Epoch: epoch, Ranks: ranks, Iters: iters}, nil
}

// SSSPState carries one source's shortest-path distances across epochs.
type SSSPState[T semiring.Number] struct {
	// Epoch is the committed epoch the distances were computed at.
	Epoch uint64
	// Source is the vertex the distances are measured from.
	Source int
	// Dist is the distance of every vertex from Source (the semiring's
	// infinity where unreachable). A warm start reads it and copies it, never
	// writes it; a caller that keeps the state as a future prev must not
	// write it either.
	Dist []T
	// Rounds is how many relaxation rounds computing Dist took.
	Rounds int
	// Warm reports whether those rounds started from a previous state's
	// distances rather than from infinity.
	Warm bool
	// stamp pins the epoch and its delete/raise counts, so the next refresh
	// can tell whether the interval only inserted edges and lowered weights.
	stamp dist.Stamp
}

// Invalidations counts the deletes and raises merged up to the state's epoch.
// Two states of one matrix with equal counts lie in one run of epochs that
// only inserted edges and lowered weights; a larger count is a later run.
func (s *SSSPState[T]) Invalidations() uint64 { return s.stamp.Deletes + s.stamp.Raises }

// IncrementalSSSPAt is IncrementalSSSP on a snapshot pinned earlier together
// with its stamp. It starts from prev's distances iff prev is from the same
// source, and stamp extends prev's: same matrix, prev's epoch not newer, no
// delete and no raise merged in between. Otherwise — no prev, a zero stamp, a
// newer prev, another source, a delete or a raise — it runs cold. Either way
// the distances are bitwise those of a cold SSSPDist, on any graph without a
// negative cycle: rounding is monotone, so the previous answer is an upper
// bound made of path lengths, and relaxation lowers it to the cold fixpoint.
// With a negative cycle no run settles; a warm run that uses every round is
// therefore rerun cold, and the cold round count is the one reported.
func IncrementalSSSPAt[T semiring.Number](rt *locale.Runtime, mat *dist.Mat[T], stamp dist.Stamp, source int, prev *SSSPState[T]) (*SSSPState[T], error) {
	defer rt.Span("IncrementalSSSP").End()
	var init []T
	if prev != nil && prev.Source == source && len(prev.Dist) == mat.NRows && stamp.Extends(prev.stamp) {
		init = prev.Dist
	}
	d, rounds, err := ssspDistInit(rt, mat, source, init)
	if err == nil && init != nil && rounds >= mat.NRows-1 {
		init = nil
		d, rounds, err = ssspDistInit(rt, mat, source, nil)
	}
	if err != nil {
		return nil, err
	}
	return &SSSPState[T]{Epoch: stamp.Epoch, Source: source, Dist: d, Rounds: rounds, Warm: init != nil, stamp: stamp}, nil
}
