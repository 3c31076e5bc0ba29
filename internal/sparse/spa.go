package sparse

import (
	"sync/atomic"

	"repro/internal/semiring"
)

// SPA is the sparse accumulator of Gilbert, Moler and Schreiber: a dense
// vector of values, a dense vector of Booleans (IsThere) marking which
// entries have been initialized, and a list of indices (NzInds) for which
// IsThere has been set. It supports O(1) scatter/accumulate and O(nnz)
// harvest of the result.
//
// This is the sequential variant; AtomicSPA below is the concurrent variant
// used by the paper's shared-memory SpMSpV, where IsThere is made atomic
// because multiple threads can visit the same column.
type SPA[T semiring.Number] struct {
	Val     []T
	IsThere []bool
	NzInds  []int
}

// NewSPA returns a SPA over index domain [0, n).
func NewSPA[T semiring.Number](n int) *SPA[T] {
	return &SPA[T]{
		Val:     make([]T, n),
		IsThere: make([]bool, n),
		NzInds:  make([]int, 0, 64),
	}
}

// Scatter accumulates v into position i with op, initializing the position
// on first touch.
func (s *SPA[T]) Scatter(i int, v T, op semiring.BinaryOp[T]) {
	if !s.IsThere[i] {
		s.IsThere[i] = true
		s.Val[i] = v
		s.NzInds = append(s.NzInds, i)
		return
	}
	s.Val[i] = op(s.Val[i], v)
}

// NNZ returns the number of touched positions.
func (s *SPA[T]) NNZ() int { return len(s.NzInds) }

// Reset clears the touched positions in O(nnz) so the SPA can be reused
// without reallocating its dense arrays.
func (s *SPA[T]) Reset() {
	for _, i := range s.NzInds {
		s.IsThere[i] = false
	}
	s.NzInds = s.NzInds[:0]
}

// Grow resizes a reset SPA to index domain [0, n), reusing the dense arrays
// when their capacity suffices. The SPA must be reset (all IsThere false
// within capacity) — the invariant Reset maintains — so no clearing pass is
// needed.
func (s *SPA[T]) Grow(n int) {
	if cap(s.Val) < n {
		s.Val = make([]T, n)
		s.IsThere = make([]bool, n)
	} else {
		s.Val = s.Val[:n]
		s.IsThere = s.IsThere[:n]
	}
	s.NzInds = s.NzInds[:0]
}

// AtomicSPA is the concurrent sparse accumulator the paper's shared-memory
// SpMSpV uses: IsThere is an atomic Boolean vector so that threads claiming
// the same column race safely, and the nzinds list is compacted through an
// atomic fetch-and-add cursor. The flags are uint32s (the size of an
// atomic.Bool) so that one worker can claim with plain loads and stores
// (Claim) and several with the paper's atomics (TryClaim); Claim never runs
// beside another goroutine's claim.
type AtomicSPA[T semiring.Number] struct {
	LocalY  []int64 // the paper's "localy": row id that discovered the column
	isThere []uint32
	NzInds  []int
	cursor  int64
}

// NewAtomicSPA returns an atomic SPA over index domain [0, n).
func NewAtomicSPA[T semiring.Number](n int) *AtomicSPA[T] {
	return &AtomicSPA[T]{
		LocalY:  make([]int64, n),
		isThere: make([]uint32, n),
		NzInds:  make([]int, n),
	}
}

// TryClaim attempts to claim position i for the calling thread. Exactly one
// caller per position wins; the winner's slot in the compacted index list is
// reserved with a fetch-and-add, exactly as Listing 7 of the paper does with
// `nzinds[k.fetchAdd(1)] = colid`.
func (s *AtomicSPA[T]) TryClaim(i int) bool {
	if atomic.LoadUint32(&s.isThere[i]) != 0 {
		return false
	}
	if !atomic.CompareAndSwapUint32(&s.isThere[i], 0, 1) {
		return false
	}
	k := atomic.AddInt64(&s.cursor, 1) - 1
	s.NzInds[k] = i
	return true
}

// Claim is TryClaim for a single writer: it claims position i with plain
// loads and stores, so no other goroutine may touch the SPA until the claim
// phase ends. It claims the same positions in the same order as TryClaim
// would on one goroutine.
func (s *AtomicSPA[T]) Claim(i int) bool {
	if s.isThere[i] != 0 {
		return false
	}
	s.isThere[i] = 1
	s.NzInds[s.cursor] = i
	s.cursor++
	return true
}

// CompactInds returns the claimed indices (unsorted; length = claim count),
// mirroring the paper's `nzinds.remove(k.read(), ncol-k.read())`. Call it
// once the claim phase has ended (the workers joined).
func (s *AtomicSPA[T]) CompactInds() []int {
	return s.NzInds[:s.cursor]
}

// Reset clears all claimed positions in O(claimed) for reuse. Like
// CompactInds it runs after the claim phase, so plain stores suffice.
func (s *AtomicSPA[T]) Reset() {
	for _, i := range s.CompactInds() {
		s.isThere[i] = 0
	}
	s.cursor = 0
}

// Grow resizes a reset atomic SPA to index domain [0, n), reusing the dense
// arrays when their capacity suffices. Like SPA.Grow it relies on the Reset
// invariant (every flag within capacity is false), so shrinking and
// re-growing never exposes stale claims.
func (s *AtomicSPA[T]) Grow(n int) {
	if cap(s.LocalY) < n {
		s.LocalY = make([]int64, n)
		s.isThere = make([]uint32, n)
		s.NzInds = make([]int, n)
	} else {
		s.LocalY = s.LocalY[:n]
		s.isThere = s.isThere[:n]
		s.NzInds = s.NzInds[:n]
	}
	s.cursor = 0
}
