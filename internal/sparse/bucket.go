package sparse

import (
	"repro/internal/semiring"
	"repro/internal/workpool"
)

// BucketSPA is the sort-free bucketed sparse accumulator: the output index
// space [0, n) is split into contiguous bucket ranges, every worker appends
// (index, value) entries to a private run per bucket — no atomics, no shared
// cursor — and Merge then resolves each bucket independently before emitting
// its range in ascending index order. Because the bucket ranges themselves
// ascend, concatenating the per-bucket emissions yields a globally sorted,
// duplicate-free result without any sorting step. This is the CombBLAS-style
// remedy for the sort bottleneck the paper's Fig 7 identifies in the
// SPA → Sort → Output pipeline.
//
// Determinism: Merge visits the runs of a bucket in worker order and each
// worker appends in its input order, so first-wins claiming (op == nil)
// resolves to the globally first append when workers partition the input into
// contiguous ascending chunks — the result is independent of both the worker
// count and the bucket count.
//
// With a single writer there is no order to resolve: append order is merge
// order. Such a caller skips the runs and accumulates straight into the dense
// scratch (Dense), and EmitDense harvests it once (HarvestFlags) — same (ind,
// val), same BucketMergeStats, without the run append and the second pass.
//
// A BucketSPA is reusable: MergeInto and EmitDense leave the dense scratch
// clean and the runs truncated (capacity retained), so scatter → merge →
// scatter cycles on one instance are allocation-free in steady state.
// ScratchPool pools instances across kernel calls.
type BucketSPA[T semiring.Number] struct {
	N       int // output index domain [0, N)
	Workers int // run owners (first Append dimension)
	Buckets int // contiguous index ranges (second Append dimension)

	shift   uint  // bucket width is 1<<shift, so BucketOf is a shift
	bounds  []int // bucket b owns [bounds[b], bounds[b+1])
	runs    [][]bucketEntry[T]
	val     []T
	isThere []bool

	counts  []int // per-bucket claim counts, reused across merges
	offsets []int // prefix sums of counts, reused across merges
	pos     []int // EmitDense's harvested positions, reused across emits
}

type bucketEntry[T semiring.Number] struct {
	ind int
	val T
}

// BucketMergeStats records the work one Merge performed, for cost accounting.
type BucketMergeStats struct {
	Entries int64 // run entries resolved across all buckets
	Claimed int   // distinct output positions (= result nnz)
	Scanned int64 // positions scanned during ordered emission (= N)
}

// NewBucketSPA returns a bucketed SPA over index domain [0, n) with the given
// worker count and at most the given bucket count (both clamped to at least
// 1): the bucket width is rounded up to a power of two, and Buckets is the
// number of ranges of that width that cover [0, n), so none is empty.
func NewBucketSPA[T semiring.Number](n, workers, buckets int) *BucketSPA[T] {
	s := &BucketSPA[T]{}
	s.Reconfigure(n, workers, buckets)
	return s
}

// Reconfigure resizes a clean BucketSPA (empty runs, all-false isThere — the
// state MergeInto leaves behind) for a new (n, workers, buckets) shape,
// reusing every backing array whose capacity suffices.
func (s *BucketSPA[T]) Reconfigure(n, workers, buckets int) {
	if workers < 1 {
		workers = 1
	}
	if buckets < 1 {
		buckets = 1
	}
	s.shift = 0
	for buckets<<s.shift < n {
		s.shift++
	}
	if n > 0 {
		buckets = (n + 1<<s.shift - 1) >> s.shift
	}
	s.N, s.Workers, s.Buckets = n, workers, buckets
	s.bounds = growInts(s.bounds, buckets+1)
	for b := 0; b <= buckets; b++ {
		s.bounds[b] = min(b<<s.shift, n)
	}
	nr := workers * buckets
	if cap(s.runs) < nr {
		runs := make([][]bucketEntry[T], nr)
		copy(runs, s.runs[:cap(s.runs)])
		s.runs = runs
	} else {
		s.runs = s.runs[:nr]
	}
	for i := range s.runs {
		s.runs[i] = s.runs[i][:0]
	}
	if cap(s.val) < n {
		s.val = make([]T, n)
		s.isThere = make([]bool, n)
	} else {
		s.val = s.val[:n]
		s.isThere = s.isThere[:n]
	}
	s.counts = growInts(s.counts, buckets)
	s.offsets = growInts(s.offsets, buckets+1)
}

// growInts reslices xs to length n, reallocating only when capacity is short.
func growInts(xs []int, n int) []int {
	if cap(xs) < n {
		return make([]int, n)
	}
	return xs[:n]
}

// BucketOf returns the bucket owning index i.
func (s *BucketSPA[T]) BucketOf(i int) int { return i >> s.shift }

// Append records (i, v) on worker w's private run for the bucket owning i.
// Concurrent calls are safe as long as each worker id has one caller.
func (s *BucketSPA[T]) Append(w, i int, v T) {
	r := w*s.Buckets + s.BucketOf(i)
	s.runs[r] = append(s.runs[r], bucketEntry[T]{i, v})
}

// MergeInto resolves every bucket and emits the result, appending into ind
// and val (pass buffers with retained capacity for an allocation-free merge,
// or nil for fresh slices). With op == nil the first appended entry of each
// position wins (worker order, then append order); otherwise duplicates are
// accumulated with op in that same order. Buckets touch disjoint ranges of
// the dense scratch arrays, so they are processed with up to `parallel`
// concurrent executors on wp (nil wp uses the shared pool) without
// synchronization. The returned index slice is sorted and duplicate-free;
// val is aligned with it.
//
// MergeInto cleans up after itself: the emission pass clears every claimed
// isThere flag and the runs are truncated (capacity kept), so the BucketSPA
// is immediately reusable — the property ScratchPool relies on.
func (s *BucketSPA[T]) MergeInto(op semiring.BinaryOp[T], wp *workpool.Pool, parallel int, ind []int, val []T) ([]int, []T, BucketMergeStats) {
	var st BucketMergeStats
	if parallel <= 1 || s.Buckets == 1 {
		for b := 0; b < s.Buckets; b++ {
			s.counts[b] = s.mergeBucket(b, op)
		}
	} else {
		wp.ParFor(parallel, s.Buckets, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				s.counts[b] = s.mergeBucket(b, op)
			}
		})
	}
	for _, r := range s.runs {
		st.Entries += int64(len(r))
	}
	s.offsets[0] = 0
	for b := 0; b < s.Buckets; b++ {
		s.offsets[b+1] = s.offsets[b] + s.counts[b]
	}
	total := s.offsets[s.Buckets]
	base := len(ind)
	ind = growAppend(ind, total)
	val = growAppendT(val, total)
	out, outV := ind[base:], val[base:]
	if parallel <= 1 || s.Buckets == 1 {
		for b := 0; b < s.Buckets; b++ {
			s.emitBucket(b, out, outV)
		}
	} else {
		wp.ParFor(parallel, s.Buckets, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				s.emitBucket(b, out, outV)
			}
		})
	}
	for i := range s.runs {
		s.runs[i] = s.runs[i][:0]
	}
	st.Claimed = total
	st.Scanned = int64(s.N)
	return ind, val, st
}

// Dense exposes the dense scratch to a single writer that accumulates in
// place instead of appending: position i holds a value iff isThere[i]. The
// writer must finish with EmitDense.
func (s *BucketSPA[T]) Dense() (val []T, isThere []bool) { return s.val, s.isThere }

// EmitDense is MergeInto for a single writer that accumulated entries
// products into the dense scratch: one harvest of the claim flags (which
// clears them) appends the claimed positions and their values to ind and
// val. The stats are what MergeInto reports for the same entries appended to
// runs.
func (s *BucketSPA[T]) EmitDense(entries int64, ind []int, val []T) ([]int, []T, BucketMergeStats) {
	s.pos = growInts(s.pos, s.N)
	claimed := HarvestFlags(s.isThere, 0, s.pos)
	base := len(ind)
	ind = growAppend(ind, claimed)
	val = growAppendT(val, claimed)
	copy(ind[base:], s.pos[:claimed])
	outV := val[base:]
	for k, i := range s.pos[:claimed] {
		outV[k] = s.val[i]
	}
	return ind, val, BucketMergeStats{Entries: entries, Claimed: claimed, Scanned: int64(s.N)}
}

// HarvestFlags writes base+i for every set flags[i] to out in ascending
// order, clears the flags and returns how many it wrote. out must hold
// len(flags) positions: the loop writes one at every position and advances
// its cursor by the flag, so it has no data-dependent branch — on a claim
// bitmap about a quarter set, an `if` per position mispredicts on most of
// them.
func HarvestFlags(flags []bool, base int, out []int) int {
	out = out[:len(flags)]
	k := 0
	for i, f := range flags {
		out[k] = base + i
		k += b2i(f)
	}
	clear(flags)
	return k
}

// b2i is 1 for true and 0 for false, compiled to a zero-extending byte load
// rather than a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mergeBucket resolves bucket b's runs into the dense scratch and returns the
// number of distinct positions claimed.
func (s *BucketSPA[T]) mergeBucket(b int, op semiring.BinaryOp[T]) int {
	cnt := 0
	for w := 0; w < s.Workers; w++ {
		for _, e := range s.runs[w*s.Buckets+b] {
			if !s.isThere[e.ind] {
				s.isThere[e.ind] = true
				s.val[e.ind] = e.val
				cnt++
			} else if op != nil {
				s.val[e.ind] = op(s.val[e.ind], e.val)
			}
		}
	}
	return cnt
}

// emitBucket scans bucket b's range in ascending order, writing its claimed
// positions at their offsets in ind/val and clearing the claim flags.
func (s *BucketSPA[T]) emitBucket(b int, ind []int, val []T) {
	k := s.offsets[b]
	for i := s.bounds[b]; i < s.bounds[b+1]; i++ {
		if s.isThere[i] {
			s.isThere[i] = false
			ind[k] = i
			val[k] = s.val[i]
			k++
		}
	}
}

// growAppend extends xs by n elements (values unspecified), reallocating only
// when capacity is short.
func growAppend(xs []int, n int) []int {
	if cap(xs)-len(xs) >= n {
		return xs[:len(xs)+n]
	}
	out := make([]int, len(xs)+n)
	copy(out, xs)
	return out
}

// growAppendT is growAppend for the value slice.
func growAppendT[T semiring.Number](xs []T, n int) []T {
	if cap(xs)-len(xs) >= n {
		return xs[:len(xs)+n]
	}
	out := make([]T, len(xs)+n)
	copy(out, xs)
	return out
}
