package gb

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sparse"
)

// Streaming surface: a StreamingMatrix absorbs batched edge inserts and
// deletes and merges them into the distributed blocks at epoch commits.
// Readers pin the last committed epoch with one atomic load — they never
// block on ingest and never observe a partially merged block. A commit that
// loses a locale mid-merge aborts cleanly (the committed epoch stays
// published, the mutations stay pending) and recovers under the context's
// RecoveryPolicy: the exact policies repair and replay the merge, BestEffort
// keeps serving the previous committed epoch and records the staleness.

// EpochPolicy configures the streaming matrices created on a context.
// An EpochPolicy is itself a New option:
//
//	ctx, err := gb.New(gb.Locales(4), gb.EpochPolicy{FlushEvery: 1024})
type EpochPolicy struct {
	// FlushEvery auto-commits an epoch whenever the pending mutation count
	// reaches this threshold. Zero means manual Flush only.
	FlushEvery int
}

// apply makes an EpochPolicy usable directly as a New option.
func (p EpochPolicy) apply(o *options) error {
	if p.FlushEvery < 0 {
		return fmt.Errorf("gb: EpochPolicy.FlushEvery = %d, want >= 0", p.FlushEvery)
	}
	o.epoch = &p
	return nil
}

// WithEpochPolicy returns a New option configuring streaming matrices.
func WithEpochPolicy(p EpochPolicy) Option { return p }

// WithEpochPolicy returns a context whose streaming matrices use policy p.
// The receiver is not modified.
func (c *Context) WithEpochPolicy(p EpochPolicy) *Context {
	nc := c.clone()
	nc.epoch = p
	return nc
}

// EpochPolicy returns the streaming policy of this context.
func (c *Context) EpochPolicy() EpochPolicy { return c.epoch }

// StreamingMatrix is a distributed sparse matrix under streaming mutation:
// writers absorb updates and commit epochs, readers pin immutable epoch
// snapshots. All methods are driven from the caller's goroutine — the
// simulated cluster parallelism is modeled, as everywhere in this library.
type StreamingMatrix[T Number] struct {
	ctx *Context
	em  *dist.EpochMat[T]
	pol EpochPolicy
	// stale reports whether the last Flush served a stale epoch instead of
	// committing (BestEffort under a mid-merge locale loss); staleServes
	// counts how often that happened over the matrix's lifetime.
	stale       bool
	staleServes int
}

// StreamingMatrixFromCSR distributes a local CSR matrix as epoch 0 of a
// streaming matrix. On a replicating context each block also gets a replica,
// kept current at every epoch commit.
func StreamingMatrixFromCSR[T Number](ctx *Context, a *sparse.CSR[T]) *StreamingMatrix[T] {
	return MatrixFromCSR(ctx, a).Streaming()
}

// Streaming wraps the matrix as epoch 0 of a streaming matrix. The original
// matrix must not be used for further operations: its blocks are shared with
// the committed epochs until rewritten.
func (m *Matrix[T]) Streaming() *StreamingMatrix[T] {
	return &StreamingMatrix[T]{ctx: m.ctx, em: dist.NewEpochMat(m.m), pol: m.ctx.epoch}
}

// checkCoord validates one mutation coordinate against the matrix shape.
func (s *StreamingMatrix[T]) checkCoord(op string, i, j int) error {
	m := s.em.Committed()
	if i < 0 || i >= m.NRows {
		return fmt.Errorf("gb: %s: row %d outside matrix of %d rows: %w", op, i, m.NRows, ErrIndexOutOfRange)
	}
	if j < 0 || j >= m.NCols {
		return fmt.Errorf("gb: %s: column %d outside matrix of %d columns: %w", op, j, m.NCols, ErrIndexOutOfRange)
	}
	return nil
}

// maybeAutoFlush commits an epoch when the pending count reaches the
// policy threshold.
func (s *StreamingMatrix[T]) maybeAutoFlush() error {
	if s.pol.FlushEvery > 0 && s.em.Pending() >= s.pol.FlushEvery {
		_, err := s.Flush()
		return err
	}
	return nil
}

// Update absorbs one edge insert/overwrite at (i, j). Duplicates within an
// epoch resolve last-wins at commit. With a FlushEvery policy the epoch
// auto-commits when enough mutations are pending.
func (s *StreamingMatrix[T]) Update(i, j int, v T) error {
	if err := s.checkCoord("Update", i, j); err != nil {
		return err
	}
	if err := s.em.Update(i, j, v); err != nil {
		return err
	}
	return s.maybeAutoFlush()
}

// Delete absorbs one edge delete. Deleting an absent entry is a no-op at
// commit.
func (s *StreamingMatrix[T]) Delete(i, j int) error {
	if err := s.checkCoord("Delete", i, j); err != nil {
		return err
	}
	if err := s.em.Delete(i, j); err != nil {
		return err
	}
	return s.maybeAutoFlush()
}

// UpdateBatch absorbs a batch of inserts given as parallel triplet slices.
func (s *StreamingMatrix[T]) UpdateBatch(rows, cols []int, vals []T) error {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return fmt.Errorf("gb: UpdateBatch: triplet slices of lengths %d/%d/%d differ: %w",
			len(rows), len(cols), len(vals), ErrDimensionMismatch)
	}
	for k := range rows {
		if err := s.checkCoord("UpdateBatch", rows[k], cols[k]); err != nil {
			return err
		}
	}
	if err := s.em.UpdateBatch(rows, cols, vals); err != nil {
		return err
	}
	return s.maybeAutoFlush()
}

// Flush merges every pending mutation into a new committed epoch and returns
// the epoch readers now see. A locale lost mid-merge never publishes a torn
// epoch: the merge aborts, recovery runs under the context's RecoveryPolicy,
// and exact policies replay the merge to the identical commit. Under
// BestEffort the previous committed epoch keeps serving — the returned epoch
// is the stale one served, Stale reports it, and the pending mutations stay
// absorbed for the next Flush (freshness is given up, data is not).
func (s *StreamingMatrix[T]) Flush() (uint64, error) {
	epoch, stale, err := core.FlushEpoch(s.ctx.rt, s.em)
	s.stale = stale
	if stale {
		s.staleServes++
	}
	return epoch, err
}

// Epoch returns the committed epoch (0 before the first Flush).
func (s *StreamingMatrix[T]) Epoch() uint64 { return s.em.Epoch() }

// Pending returns the number of absorbed, not-yet-committed mutations.
func (s *StreamingMatrix[T]) Pending() int { return s.em.Pending() }

// Stale reports whether the last Flush served a stale epoch instead of
// committing a fresh one (only possible under the BestEffort policy).
func (s *StreamingMatrix[T]) Stale() bool { return s.stale }

// StaleServes returns how many flushes served a stale epoch so far.
func (s *StreamingMatrix[T]) StaleServes() int { return s.staleServes }

// Matrix pins the committed epoch as a read-only Matrix: one atomic load.
// The snapshot stays immutable for as long as the caller holds it, however
// many epochs commit meanwhile, and carries its epoch's stamp, which
// IncrementalSSSP reads.
func (s *StreamingMatrix[T]) Matrix() (*Matrix[T], uint64) {
	m, stamp := s.em.Pinned()
	return &Matrix[T]{ctx: s.ctx, m: m, pin: stamp}, stamp.Epoch
}

// NRows returns the row count.
func (s *StreamingMatrix[T]) NRows() int { return s.em.Committed().NRows }

// NCols returns the column count.
func (s *StreamingMatrix[T]) NCols() int { return s.em.Committed().NCols }

// NNZ returns the stored-element count of the committed epoch.
func (s *StreamingMatrix[T]) NNZ() int { return s.em.Committed().NNZ() }

// Incremental algorithm state, re-exported.
type (
	// CCState is incremental connected-components state (see IncrementalCC).
	CCState = algorithms.CCState
	// PageRankState is streaming PageRank state (see StreamingPageRank).
	PageRankState = algorithms.PageRankState
)

// SSSPState is one source's shortest-path distances at one epoch, kept to
// warm-start the next refresh (see IncrementalSSSP).
type SSSPState[T Number] = algorithms.SSSPState[T]

// IncrementalSSSP computes single-source shortest paths from source at the
// committed epoch, warm-started from prev's distances when every epoch since
// prev's only inserted edges or lowered weights (see gb.IncrementalSSSP).
func (s *StreamingMatrix[T]) IncrementalSSSP(source int, prev *SSSPState[T]) (*SSSPState[T], error) {
	m, _ := s.Matrix()
	return IncrementalSSSP(m, source, prev)
}

// IncrementalSSSP runs SSSP from source on a streaming snapshot
// (StreamingMatrix.Matrix, or a WithContext view of one), starting from
// prev's distances when prev is from the same source on the same streaming
// matrix, at the snapshot's epoch or an earlier one, and no epoch in between
// deleted an edge or raised a stored weight. Then only the changes have to
// propagate: one round when nothing changed. In every other case — a nil
// prev, another source, a newer prev, a delete or a raise, a matrix that is
// not a streaming snapshot — it runs cold. The distances are bitwise SSSP's
// either way (graphs with a negative cycle included: a warm run that does not
// settle is rerun cold); Rounds and the modeled clock show the work done, and
// the returned state's Warm says which start it was.
func IncrementalSSSP[T Number](m *Matrix[T], source int, prev *SSSPState[T]) (*SSSPState[T], error) {
	if err := checkGraphSource("IncrementalSSSP", m, source); err != nil {
		return nil, err
	}
	m.ctx.force()
	return algorithms.IncrementalSSSPAt(m.ctx.rt, m.m, m.pin, source, prev)
}

// IncrementalCC refreshes connected components at the committed epoch,
// warm-starting from prev when the epochs in between only inserted edges
// (the warm result is bitwise-identical to a cold run, in fewer rounds); a
// nil prev or an interval with deletes computes from scratch.
func (s *StreamingMatrix[T]) IncrementalCC(prev *CCState) (*CCState, error) {
	if m := s.em.Committed(); m.NRows != m.NCols {
		return nil, fmt.Errorf("gb: IncrementalCC: adjacency matrix is %dx%d, want square: %w",
			m.NRows, m.NCols, ErrDimensionMismatch)
	}
	return algorithms.IncrementalCC(s.ctx.rt, s.em, prev)
}

// StreamingPageRank refreshes PageRank at the committed epoch, warm-started
// from prev's ranks (valid under inserts and deletes; close epochs
// re-converge in few iterations).
func (s *StreamingMatrix[T]) StreamingPageRank(d, tol float64, maxIter int, prev *PageRankState) (*PageRankState, error) {
	if m := s.em.Committed(); m.NRows != m.NCols {
		return nil, fmt.Errorf("gb: StreamingPageRank: adjacency matrix is %dx%d, want square: %w",
			m.NRows, m.NCols, ErrDimensionMismatch)
	}
	return algorithms.StreamingPageRank(s.ctx.rt, s.em, d, tol, maxIter, prev)
}
