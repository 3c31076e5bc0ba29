package sparse

import (
	"sync"

	"repro/internal/semiring"
)

// ScratchPool is the kernel scratch arena: a concurrency-safe pool of the
// dense accumulators, index buffers and output vectors the hot kernels would
// otherwise allocate on every call. A kernel checks scratch out, uses it, and
// returns it; in steady state (repeated calls with stable problem sizes) the
// checkout is a pop and the kernel allocates nothing.
//
// Aliasing rules (see DESIGN.md §10): a kernel must not retain any reference
// into checked-out scratch after returning it, and anything handed to the
// caller (an output vector, a merged run) must either come from a Get* the
// caller is told it owns, or be freshly allocated. Returning an object twice,
// or returning an object while a reference escapes, corrupts later checkouts.
//
// The generic accessors (GetAtomicSPA, GetSPA, GetBucketSPA, GetVec) share
// one underlying pool per category across element types; a pooled object of
// the wrong element type is simply dropped and a fresh one allocated, so
// mixed-type workloads stay correct (single-type workloads — every benchmark
// and every BFS-family algorithm — always hit).
//
// The zero value is NOT ready; use NewScratchPool. All methods are nil-safe:
// a nil *ScratchPool degrades every Get* to a plain allocation and every Put*
// to a no-op, so unpooled call sites keep working unchanged.
type ScratchPool struct {
	mu     sync.Mutex
	ints   [][]int
	int32s [][]int32
	int64s [][]int64

	atomicSpas sync.Pool // *AtomicSPA[T]
	spas       sync.Pool // *SPA[T]
	buckets    sync.Pool // *BucketSPA[T]
	vecs       sync.Pool // *Vec[T]
	dcscs      sync.Pool // *DCSC[T]
	csrs       sync.Pool // *[]*CSR[T]
}

// NewScratchPool returns an empty arena.
func NewScratchPool() *ScratchPool { return &ScratchPool{} }

// GetInts checks out an []int of length n (values unspecified).
func (p *ScratchPool) GetInts(n int) []int {
	if p != nil {
		p.mu.Lock()
		for k := len(p.ints) - 1; k >= 0; k-- {
			if cap(p.ints[k]) >= n {
				s := p.ints[k][:n]
				p.ints[k] = p.ints[len(p.ints)-1]
				p.ints = p.ints[:len(p.ints)-1]
				p.mu.Unlock()
				return s
			}
		}
		p.mu.Unlock()
	}
	return make([]int, n)
}

// PutInts returns a buffer checked out with GetInts.
func (p *ScratchPool) PutInts(s []int) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.ints = append(p.ints, s[:0])
	p.mu.Unlock()
}

// GetInt32s checks out an []int32 of length n (values unspecified).
func (p *ScratchPool) GetInt32s(n int) []int32 {
	if p != nil {
		p.mu.Lock()
		for k := len(p.int32s) - 1; k >= 0; k-- {
			if cap(p.int32s[k]) >= n {
				s := p.int32s[k][:n]
				p.int32s[k] = p.int32s[len(p.int32s)-1]
				p.int32s = p.int32s[:len(p.int32s)-1]
				p.mu.Unlock()
				return s
			}
		}
		p.mu.Unlock()
	}
	return make([]int32, n)
}

// PutInt32s returns a buffer checked out with GetInt32s.
func (p *ScratchPool) PutInt32s(s []int32) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.int32s = append(p.int32s, s[:0])
	p.mu.Unlock()
}

// GetInt64s checks out an []int64 of length n (values unspecified).
func (p *ScratchPool) GetInt64s(n int) []int64 {
	if p != nil {
		p.mu.Lock()
		for k := len(p.int64s) - 1; k >= 0; k-- {
			if cap(p.int64s[k]) >= n {
				s := p.int64s[k][:n]
				p.int64s[k] = p.int64s[len(p.int64s)-1]
				p.int64s = p.int64s[:len(p.int64s)-1]
				p.mu.Unlock()
				return s
			}
		}
		p.mu.Unlock()
	}
	return make([]int64, n)
}

// PutInt64s returns a buffer checked out with GetInt64s.
func (p *ScratchPool) PutInt64s(s []int64) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.int64s = append(p.int64s, s[:0])
	p.mu.Unlock()
}

// GetAtomicSPA checks out an atomic SPA over [0, n), reset and ready.
func GetAtomicSPA[T semiring.Number](p *ScratchPool, n int) *AtomicSPA[T] {
	if p != nil {
		if v := p.atomicSpas.Get(); v != nil {
			if s, ok := v.(*AtomicSPA[T]); ok {
				s.Grow(n)
				return s
			}
		}
	}
	return NewAtomicSPA[T](n)
}

// PutAtomicSPA resets s and returns it to the arena.
func PutAtomicSPA[T semiring.Number](p *ScratchPool, s *AtomicSPA[T]) {
	if p == nil || s == nil {
		return
	}
	s.Reset()
	p.atomicSpas.Put(s)
}

// GetSPA checks out a sequential SPA over [0, n), reset and ready.
func GetSPA[T semiring.Number](p *ScratchPool, n int) *SPA[T] {
	if p != nil {
		if v := p.spas.Get(); v != nil {
			if s, ok := v.(*SPA[T]); ok {
				s.Grow(n)
				return s
			}
		}
	}
	return NewSPA[T](n)
}

// PutSPA resets s and returns it to the arena.
func PutSPA[T semiring.Number](p *ScratchPool, s *SPA[T]) {
	if p == nil || s == nil {
		return
	}
	s.Reset()
	p.spas.Put(s)
}

// GetBucketSPA checks out a bucketed SPA reconfigured for (n, workers,
// buckets), with clean dense scratch and empty runs.
func GetBucketSPA[T semiring.Number](p *ScratchPool, n, workers, buckets int) *BucketSPA[T] {
	if p != nil {
		if v := p.buckets.Get(); v != nil {
			if s, ok := v.(*BucketSPA[T]); ok {
				s.Reconfigure(n, workers, buckets)
				return s
			}
		}
	}
	return NewBucketSPA[T](n, workers, buckets)
}

// PutBucketSPA returns a bucketed SPA to the arena. The SPA must be clean:
// MergeInto leaves it clean, so the normal use — scatter, merge, put — needs
// no extra reset.
func PutBucketSPA[T semiring.Number](p *ScratchPool, s *BucketSPA[T]) {
	if p == nil || s == nil {
		return
	}
	p.buckets.Put(s)
}

// GetVec checks out an empty sparse vector of capacity n whose Ind/Val
// backing arrays are reused across checkouts. The caller owns the vector; if
// it is scratch (not handed to user code), return it with PutVec so the next
// call is allocation-free.
func GetVec[T semiring.Number](p *ScratchPool, n int) *Vec[T] {
	if p != nil {
		if v := p.vecs.Get(); v != nil {
			if w, ok := v.(*Vec[T]); ok {
				w.N = n
				w.Ind = w.Ind[:0]
				w.Val = w.Val[:0]
				return w
			}
		}
	}
	return NewVec[T](n)
}

// PutVec returns a vector checked out with GetVec (or any vector whose
// backing arrays the caller is done with) to the arena.
func PutVec[T semiring.Number](p *ScratchPool, v *Vec[T]) {
	if p == nil || v == nil {
		return
	}
	v.Ind = v.Ind[:0]
	v.Val = v.Val[:0]
	p.vecs.Put(v)
}

// GetDCSC checks out an empty doubly-compressed block whose backing arrays
// are reused across checkouts; fill it with FromCSR. The caller owns it
// until PutDCSC.
func GetDCSC[T semiring.Number](p *ScratchPool) *DCSC[T] {
	if p != nil {
		if v := p.dcscs.Get(); v != nil {
			if d, ok := v.(*DCSC[T]); ok {
				return d
			}
		}
	}
	return &DCSC[T]{}
}

// PutDCSC returns a block checked out with GetDCSC to the arena.
func PutDCSC[T semiring.Number](p *ScratchPool, d *DCSC[T]) {
	if p == nil || d == nil {
		return
	}
	d.Rows = d.Rows[:0]
	d.RowPtr = d.RowPtr[:0]
	d.ColIdx = d.ColIdx[:0]
	d.Val = d.Val[:0]
	p.dcscs.Put(d)
}

// GetCSRs checks out a set of n empty matrices whose backing arrays are
// reused across checkouts, for a kernel that fills its outputs in place
// (SpGEMMLocal, the SUMMA stage merge). The set is pooled as a unit, so
// matrix i serves the same role call after call and its capacity settles. The
// caller owns the set until PutCSRs; a result handed on to user code must be
// copied out (Clone), never a checked-out matrix itself.
func GetCSRs[T semiring.Number](p *ScratchPool, n int) []*CSR[T] {
	var set []*CSR[T]
	if p != nil {
		if v := p.csrs.Get(); v != nil {
			if s, ok := v.(*[]*CSR[T]); ok {
				set = *s
			}
		}
	}
	if len(set) > n {
		set = set[:n]
	}
	for len(set) < n {
		set = append(set, &CSR[T]{})
	}
	return set
}

// PutCSRs returns a set checked out with GetCSRs to the arena.
func PutCSRs[T semiring.Number](p *ScratchPool, set []*CSR[T]) {
	if p == nil || len(set) == 0 {
		return
	}
	p.csrs.Put(&set)
}
