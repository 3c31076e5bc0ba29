// Streaming mutations: per-block COO deltas merged into the CSR blocks under
// epoch-based snapshot isolation.
//
// An EpochMat wraps a block-distributed Mat with a mutation pipeline modeled
// on Combinatorial BLAS 2.0's batched-update pattern: writers absorb edge
// inserts/deletes into a per-block coordinate delta (an append, zero-alloc in
// steady state), and Flush merges every dirty delta into a fresh copy of its
// CSR block, then publishes the new epoch with a single atomic pointer store.
// Readers pin a snapshot by loading that pointer: they never block on ingest,
// and because a commit is one store of a fully-built state, they can never
// observe a torn merge — a crash mid-merge simply leaves the previous epoch
// published and the deltas pending.
//
// Copy-on-write: a merged epoch shares the CSR buffers of every clean block
// with its predecessor; only dirty blocks get new storage, and nothing is
// ever written into a buffer a committed epoch holds. A snapshot obtained
// from Snapshot, Committed or Pinned therefore stays immutable for as long as
// anything holds it, however many epochs commit meanwhile; the garbage
// collector retires an epoch once no reader and no newer epoch points at it.
package dist

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// DeltaElemBytes is the modeled wire size of one routed mutation: two packed
// indices plus the value, matching the 16-byte replica element with an extra
// coordinate (mutations carry both row and column explicitly).
const DeltaElemBytes = 24

// Merge cost model, per merged element (an element read from the old block,
// plus every delta entry scanned and written): comparable to the apply-family
// streaming constants in internal/core.
const (
	deltaMergeCPU   = 12.0
	deltaMergeBytes = 32.0
)

// blockDelta buffers the pending mutations of one block in arrival order,
// with block-local coordinates. dels marks tombstones (deletes).
type blockDelta[T semiring.Number] struct {
	rows, cols []int
	vals       []T
	dels       []bool
}

func (d *blockDelta[T]) reset() {
	d.rows = d.rows[:0]
	d.cols = d.cols[:0]
	d.vals = d.vals[:0]
	d.dels = d.dels[:0]
}

// deltaSorter sorts a permutation of delta entries by encoded (row, col) key,
// breaking ties by arrival order so a linear scan of the sorted permutation
// sees duplicates oldest-to-newest (last wins).
type deltaSorter struct {
	keys, perm []int
}

func (s *deltaSorter) Len() int { return len(s.perm) }
func (s *deltaSorter) Less(a, b int) bool {
	ka, kb := s.keys[s.perm[a]], s.keys[s.perm[b]]
	if ka != kb {
		return ka < kb
	}
	return s.perm[a] < s.perm[b]
}
func (s *deltaSorter) Swap(a, b int) { s.perm[a], s.perm[b] = s.perm[b], s.perm[a] }

// epochState is one committed snapshot: the epoch counter, the matrix at that
// epoch, and the cumulative counts of merged tombstones and of merged
// overwrites that raised a stored value (so incremental algorithms can tell
// whether an epoch interval was insert-only, or insert-and-lower-only).
type epochState[T semiring.Number] struct {
	epoch   uint64
	mat     *Mat[T]
	deletes uint64
	raises  uint64
}

// Stamp names one committed epoch of one EpochMat together with the
// cumulative counts, up to that epoch, of the two kinds of merged mutation
// that can make a stored value go up: tombstones and raising overwrites. The
// zero Stamp names no epoch.
type Stamp struct {
	of      any // the *EpochMat the epoch belongs to
	Epoch   uint64
	Deletes uint64
	Raises  uint64
}

// Extends reports whether s names prev's epoch or a later one of the same
// matrix, reached from it by merges that only inserted entries or lowered
// stored values: no tombstone and no raising overwrite in between. That is
// when a monotone fixpoint computed at prev (a shortest-path distance, a
// component label) is still an upper bound at s. Nothing extends the zero
// Stamp, and the zero Stamp extends nothing.
func (s Stamp) Extends(prev Stamp) bool {
	return s.of != nil && s.of == prev.of && prev.Epoch <= s.Epoch &&
		prev.Deletes == s.Deletes && prev.Raises == s.Raises
}

// EpochMat is a block-distributed sparse matrix with streaming mutations and
// epoch-based snapshot isolation. Readers call Snapshot (lock-free, one
// atomic load); writers call Update/Delete to absorb mutations and Flush to
// merge and commit the next epoch. A single writer at a time is assumed for
// Flush; Update/Delete/Snapshot are safe to call concurrently with each
// other.
type EpochMat[T semiring.Number] struct {
	committed atomic.Pointer[epochState[T]]

	mu             sync.Mutex
	deltas         []blockDelta[T]
	pending        int
	pendingDeletes uint64
	srt            deltaSorter
}

// NewEpochMat wraps m (the epoch-0 snapshot) for streaming mutation. The
// matrix must not be mutated by the caller afterwards; its buffers are shared
// with every epoch until the blocks they hold are rewritten.
func NewEpochMat[T semiring.Number](m *Mat[T]) *EpochMat[T] {
	em := &EpochMat[T]{deltas: make([]blockDelta[T], m.G.P)}
	em.committed.Store(&epochState[T]{mat: m})
	return em
}

// SetHistoryDepth does nothing: committed epochs are retired by the garbage
// collector, so no window bounds how long a snapshot stays immutable.
//
// Deprecated: kept only for the benchmark's flush ladder
// (benchmark/ladder.go), which still calls it; it goes with that call.
func (em *EpochMat[T]) SetHistoryDepth(int) {}

// Epoch returns the committed epoch (0 before the first Flush).
func (em *EpochMat[T]) Epoch() uint64 { return em.committed.Load().epoch }

// Committed returns the matrix at the committed epoch; it stays immutable
// for as long as the caller holds it.
func (em *EpochMat[T]) Committed() *Mat[T] { return em.committed.Load().mat }

// Snapshot atomically returns the committed matrix and its epoch.
func (em *EpochMat[T]) Snapshot() (*Mat[T], uint64) {
	st := em.committed.Load()
	return st.mat, st.epoch
}

// Pinned atomically returns the committed matrix and its Stamp.
func (em *EpochMat[T]) Pinned() (*Mat[T], Stamp) {
	st := em.committed.Load()
	return st.mat, Stamp{of: em, Epoch: st.epoch, Deletes: st.deletes, Raises: st.raises}
}

// Pending returns the number of absorbed, not-yet-merged mutations.
func (em *EpochMat[T]) Pending() int {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.pending
}

// Update absorbs one edge insert/overwrite at global coordinates (i, j).
// Duplicate coordinates within an epoch resolve last-wins at merge time.
func (em *EpochMat[T]) Update(i, j int, v T) error { return em.absorb(i, j, v, false) }

// Delete absorbs one edge delete (a tombstone). Deleting an absent entry is
// a no-op at merge time.
func (em *EpochMat[T]) Delete(i, j int) error {
	var zero T
	return em.absorb(i, j, zero, true)
}

// UpdateBatch absorbs a batch of inserts given as parallel triplet slices.
func (em *EpochMat[T]) UpdateBatch(rows, cols []int, vals []T) error {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return fmt.Errorf("dist: epoch: batch length mismatch %d/%d/%d",
			len(rows), len(cols), len(vals))
	}
	for k := range rows {
		if err := em.Update(rows[k], cols[k], vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// DiscardPending drops every absorbed, not-yet-merged mutation, retaining
// the delta buffers for reuse.
func (em *EpochMat[T]) DiscardPending() {
	em.mu.Lock()
	for l := range em.deltas {
		em.deltas[l].reset()
	}
	em.pending = 0
	em.pendingDeletes = 0
	em.mu.Unlock()
}

func (em *EpochMat[T]) absorb(i, j int, v T, del bool) error {
	m := em.committed.Load().mat
	if i < 0 || i >= m.NRows {
		return fmt.Errorf("dist: epoch: row %d out of range [0,%d)", i, m.NRows)
	}
	if j < 0 || j >= m.NCols {
		return fmt.Errorf("dist: epoch: col %d out of range [0,%d)", j, m.NCols)
	}
	r := locale.OwnerOf(m.NRows, m.G.Pr, i)
	c := locale.OwnerOf(m.NCols, m.G.Pc, j)
	l := m.G.ID(r, c)
	em.mu.Lock()
	d := &em.deltas[l]
	d.rows = append(d.rows, i-m.RowBands[r])
	d.cols = append(d.cols, j-m.ColBands[c])
	d.vals = append(d.vals, v)
	d.dels = append(d.dels, del)
	em.pending++
	if del {
		em.pendingDeletes++
	}
	em.mu.Unlock()
	return nil
}

// Flush merges every dirty block delta into a copy-on-write successor of the
// committed matrix and publishes it as the next epoch. The merge runs as a
// coforall over the dirty blocks — each owner is charged the routed batch and
// the merge kernel — with the block rows count/fill split across the worker
// pool. On a locale loss (a planned mid-merge crash, or a step-counter crash
// landing during the merge's transfers) the merge aborts wholesale: the
// half-built successor is dropped, the deltas stay pending, the committed
// pointer is untouched and the loss is returned for the caller's recovery
// policy (core.FlushEpoch). With nothing pending, Flush returns the committed
// epoch unchanged.
func (em *EpochMat[T]) Flush(rt *locale.Runtime) (uint64, error) {
	em.mu.Lock()
	defer em.mu.Unlock()
	cur := em.committed.Load()
	if em.pending == 0 {
		return cur.epoch, nil
	}
	target := cur.epoch + 1
	var sp *trace.Span
	if rt.Tr != nil {
		sp = rt.Tr.Begin("EpochMerge", trace.T("epoch", strconv.FormatUint(target, 10)))
	}
	defer sp.End()

	next := em.takeState(cur)
	var mergeErr error
	rt.S.CoforallSpawn()
	for l := 0; l < rt.G.P; l++ {
		d := &em.deltas[l]
		if len(d.rows) == 0 {
			continue
		}
		if err := rt.Fault.MergeAttempt(int64(target), l); err != nil {
			mergeErr = err
			break
		}
		// Route the batched mutations to the owning locale, then merge.
		rt.S.Bulk(l, int64(len(d.rows))*DeltaElemBytes, rt.G.SameNode(0, l))
		if rt.Fault.Down(l) {
			mergeErr = fault.Lost(l)
			break
		}
		old := cur.mat.Blocks[l]
		var raises int
		next.mat.Blocks[l], raises = em.mergeBlock(rt, old, d)
		next.raises += uint64(raises)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "DeltaMerge",
			Items:        int64(old.NNZ() + 2*len(d.rows)),
			CPUPerItem:   deltaMergeCPU,
			BytesPerItem: deltaMergeBytes,
		})
	}
	if mergeErr == nil && cur.mat.Replicated() {
		// Per-epoch replica refresh, dirty blocks only: clean blocks share
		// their predecessor's replica the same way they share the primary.
		for l := 0; l < rt.G.P; l++ {
			if len(em.deltas[l].rows) != 0 {
				RefreshReplica(rt, next.mat, l)
			}
		}
	}
	if mergeErr == nil {
		// A participant lost after its own block merged — or during the
		// replica refresh — still aborts the commit: an epoch only publishes
		// when every locale reached the barrier with its replica current,
		// else a later failover could promote a stale replica.
		if l := rt.Fault.AnyDown(); l >= 0 {
			mergeErr = fault.Lost(l)
		}
	}
	if mergeErr != nil {
		return cur.epoch, mergeErr
	}
	rt.S.Barrier()

	// Publish: one atomic store, so readers see epoch N or epoch N+1 wholly.
	em.committed.Store(next)
	for l := range em.deltas {
		em.deltas[l].reset()
	}
	em.pending = 0
	em.pendingDeletes = 0
	if rt.Tr != nil {
		rt.Tr.Event("EpochCommit", trace.T("epoch", strconv.FormatUint(target, 10)))
	}
	return target, nil
}

// ReplaceCommitted swaps the matrix at the committed epoch for a repaired
// equal-content copy (the recovery path after an aborted merge: redistribute
// rebuilds the blocks, failover promotes replicas in place). The epoch does
// not advance; pending deltas are untouched and replay against the repaired
// snapshot.
func (em *EpochMat[T]) ReplaceCommitted(m *Mat[T]) {
	em.mu.Lock()
	defer em.mu.Unlock()
	cur := em.committed.Load()
	if cur.mat == m {
		return
	}
	em.committed.Store(&epochState[T]{epoch: cur.epoch, mat: m, deletes: cur.deletes, raises: cur.raises})
}

// takeState builds the copy-on-write successor of cur: a fresh state one
// epoch ahead whose block (and replica) pointer slices start as copies of
// cur's.
func (em *EpochMat[T]) takeState(cur *epochState[T]) *epochState[T] {
	src := cur.mat
	m := &Mat[T]{
		G: src.G, NRows: src.NRows, NCols: src.NCols,
		RowBands: src.RowBands, ColBands: src.ColBands,
		Blocks: append([]*sparse.CSR[T](nil), src.Blocks...),
	}
	if src.Replicated() {
		m.Replicas = append([]*sparse.CSR[T](nil), src.Replicas...)
	}
	return &epochState[T]{
		epoch:   cur.epoch + 1,
		mat:     m,
		deletes: cur.deletes + em.pendingDeletes,
		raises:  cur.raises, // Flush adds what each block merge counts
	}
}

// mergeBlock merges one block's delta into a fresh CSR: sort the delta by
// (row, col) with arrival order breaking ties, then a two-pointer union of
// each CSR row with its delta run — an insert not in the base row is added,
// a matching coordinate is overwritten (or removed, for a tombstone), and
// base-only entries are copied through. Count and fill passes both split the
// rows across the worker pool; all transient scratch comes from the runtime's
// ScratchPool, so the output block (its header and three arrays) is the only
// allocation. It also returns how many overwrites raised a
// stored value: the fill pass leaves each row's count in the per-row scratch
// the count pass is done with.
func (em *EpochMat[T]) mergeBlock(rt *locale.Runtime, b *sparse.CSR[T], d *blockDelta[T]) (*sparse.CSR[T], int) {
	nd := len(d.rows)
	scratch := rt.Scratch
	keys := sparse.GetSlice[int](scratch, nd)
	perm := sparse.GetSlice[int](scratch, nd)
	for k := 0; k < nd; k++ {
		keys[k] = d.rows[k]*b.NCols + d.cols[k]
		perm[k] = k
	}
	em.srt.keys, em.srt.perm = keys, perm
	sort.Sort(&em.srt)
	em.srt.keys, em.srt.perm = nil, nil

	// Group the sorted permutation by row: rowPtrD[i] is the index in perm of
	// row i's first delta entry.
	rowPtrD := sparse.GetSlice[int](scratch, b.NRows+1)
	for i := range rowPtrD {
		rowPtrD[i] = 0
	}
	for k := 0; k < nd; k++ {
		rowPtrD[d.rows[k]+1]++
	}
	for i := 0; i < b.NRows; i++ {
		rowPtrD[i+1] += rowPtrD[i]
	}

	out := &sparse.CSR[T]{NRows: b.NRows, NCols: b.NCols, RowPtr: make([]int, b.NRows+1)}
	counts := sparse.GetSlice[int](scratch, b.NRows)
	if rt.RealWorkers <= 1 {
		for i := 0; i < b.NRows; i++ {
			counts[i] = mergeRowCount(b, i, keys, perm, rowPtrD, d.dels)
		}
	} else {
		rt.ParFor(b.NRows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i] = mergeRowCount(b, i, keys, perm, rowPtrD, d.dels)
			}
		})
	}
	for i := 0; i < b.NRows; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + counts[i]
	}
	total := out.RowPtr[b.NRows]
	out.ColIdx = make([]int, total)
	out.Val = make([]T, total)
	if rt.RealWorkers <= 1 {
		for i := 0; i < b.NRows; i++ {
			counts[i] = mergeRowFill(b, i, keys, perm, rowPtrD, d, out, out.RowPtr[i])
		}
	} else {
		rt.ParFor(b.NRows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i] = mergeRowFill(b, i, keys, perm, rowPtrD, d, out, out.RowPtr[i])
			}
		})
	}
	raises := 0
	for _, r := range counts {
		raises += r
	}
	sparse.PutSlice(scratch, counts)
	sparse.PutSlice(scratch, rowPtrD)
	sparse.PutSlice(scratch, perm)
	sparse.PutSlice(scratch, keys)
	return out, raises
}

// mergeRowCount returns the merged size of row i: the two-pointer union of
// the base row with the row's deduplicated (last-wins) delta run, tombstones
// removing matched entries.
func mergeRowCount[T semiring.Number](b *sparse.CSR[T], i int, keys, perm, rowPtrD []int, dels []bool) int {
	cols, _ := b.Row(i)
	kb, n := 0, 0
	hi := rowPtrD[i+1]
	for k := rowPtrD[i]; k < hi; k++ {
		for k+1 < hi && keys[perm[k+1]] == keys[perm[k]] {
			k++ // duplicate coordinate: the newest entry wins
		}
		p := perm[k]
		col := keys[p] - i*b.NCols
		for kb < len(cols) && cols[kb] < col {
			kb++
			n++
		}
		if kb < len(cols) && cols[kb] == col {
			kb++
		}
		if !dels[p] {
			n++
		}
	}
	return n + len(cols) - kb
}

// mergeRowFill writes row i of the merged block at offset off; the structure
// mirrors mergeRowCount exactly. It returns how many of the row's stored
// values the delta overwrote with one that is not <= them — judged after
// last-wins dedup, so a lower-then-raise of one coordinate in one epoch is a
// raise and a raise-then-lower is not.
func mergeRowFill[T semiring.Number](b *sparse.CSR[T], i int, keys, perm, rowPtrD []int, d *blockDelta[T], out *sparse.CSR[T], off int) (raises int) {
	cols, vals := b.Row(i)
	kb := 0
	hi := rowPtrD[i+1]
	for k := rowPtrD[i]; k < hi; k++ {
		for k+1 < hi && keys[perm[k+1]] == keys[perm[k]] {
			k++
		}
		p := perm[k]
		col := keys[p] - i*b.NCols
		for kb < len(cols) && cols[kb] < col {
			out.ColIdx[off], out.Val[off] = cols[kb], vals[kb]
			off++
			kb++
		}
		stored := kb < len(cols) && cols[kb] == col
		if !d.dels[p] {
			if stored && !(d.vals[p] <= vals[kb]) {
				raises++
			}
			out.ColIdx[off], out.Val[off] = col, d.vals[p]
			off++
		}
		if stored {
			kb++
		}
	}
	for ; kb < len(cols); kb++ {
		out.ColIdx[off], out.Val[off] = cols[kb], vals[kb]
		off++
	}
	return raises
}
