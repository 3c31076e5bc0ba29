package sparse

import (
	"sync"

	"repro/internal/semiring"
)

// ScratchPool is the kernel scratch arena: a concurrency-safe pool of the
// dense accumulators, round buffers and output vectors the hot kernels would
// otherwise allocate on every call. A kernel checks scratch out, uses it, and
// returns it; in steady state (repeated calls with stable problem sizes) the
// checkout is a pop and the kernel allocates nothing.
//
// The arena keeps one set of free lists per element type, all under one
// mutex. They are plain slices, so a garbage collection does not empty them,
// and a checkout for one element type never sees — let alone drops — an
// object of another: float64 and int64 kernels alternating on one runtime
// (MxM beside TriangleCount, PageRank beside CC) each find their own scratch.
//
// A checkout is a loan (see DESIGN.md §10): GetSlice, GetSPA, GetAtomicSPA,
// GetBucketSPA, GetDCSC and GetCSRs are each answered by exactly one Put of
// the same object by the kernel that took it, on every path out of that
// kernel, errors included; Outstanding counts the loans not yet returned. A
// kernel must not retain any reference into a loan after returning it, and
// anything handed to the caller must either come from a Get* the caller is
// told it owns (GetVec) or be freshly allocated. Returning an object twice,
// or returning an object while a reference escapes, corrupts later checkouts.
//
// The zero value is NOT ready; use NewScratchPool. All functions are nil-safe:
// a nil *ScratchPool degrades every Get* to a plain allocation and every Put*
// to a no-op, so unpooled call sites keep working unchanged.
type ScratchPool struct {
	mu    sync.Mutex
	types []interface{ held() int } // one *freeLists[T] per element type seen so far
	loans int
}

// freeLists is the arena's storage for one element type.
type freeLists[T semiring.Number] struct {
	slices  [][]T
	spas    []*SPA[T]
	atomics []*AtomicSPA[T]
	buckets []*BucketSPA[T]
	vecs    []*Vec[T]
	dcscs   []*DCSC[T]
	csrs    [][]*CSR[T]
	ones    []T // see Ones
}

// held counts the objects on T's free lists.
func (fl *freeLists[T]) held() int {
	return len(fl.slices) + len(fl.spas) + len(fl.atomics) + len(fl.buckets) + len(fl.vecs) + len(fl.dcscs) + len(fl.csrs)
}

// NewScratchPool returns an empty arena.
func NewScratchPool() *ScratchPool { return &ScratchPool{} }

// Outstanding reports how many loans are checked out and not yet returned.
// It reads zero whenever no kernel is running on the arena; tests assert that.
func (p *ScratchPool) Outstanding() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loans
}

// Held reports how many objects sit on the arena's free lists. The lists are
// bounded by how many objects were in use at once, not by how many calls were
// made; tests assert that.
func (p *ScratchPool) Held() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, fl := range p.types {
		n += fl.held()
	}
	return n
}

// listsOf returns T's free lists, creating them on first use. The caller
// holds p.mu. Element types are few, so a scan of type assertions finds the
// entry faster than a map would, and without allocating.
func listsOf[T semiring.Number](p *ScratchPool) *freeLists[T] {
	for _, e := range p.types {
		if fl, ok := e.(*freeLists[T]); ok {
			return fl
		}
	}
	fl := &freeLists[T]{}
	p.types = append(p.types, fl)
	return fl
}

// pop removes and returns the most recently returned entry of a free list, or
// the zero value when the list is empty.
func pop[E any](list *[]E) (e E) {
	if n := len(*list); n > 0 {
		var zero E
		e, (*list)[n-1] = (*list)[n-1], zero
		*list = (*list)[:n-1]
	}
	return e
}

// GetSlice lends a []T of length n (values unspecified) — a dense round
// buffer, an index scratch. The most recently returned buffer with room for n
// is handed out. Without one the loan is a fresh allocation and takes the
// place of a buffer that was too small, which is dropped: the list never holds
// more buffers than were on loan at once. A zero-length loan is nil and needs
// no return.
func GetSlice[T semiring.Number](p *ScratchPool, n int) []T {
	if n == 0 {
		return nil
	}
	if p != nil {
		p.mu.Lock()
		p.loans++
		fl := listsOf[T](p)
		for k := len(fl.slices) - 1; k >= 0; k-- {
			if cap(fl.slices[k]) >= n {
				s := fl.slices[k][:n]
				fl.slices[k] = fl.slices[len(fl.slices)-1]
				pop(&fl.slices)
				p.mu.Unlock()
				return s
			}
		}
		pop(&fl.slices)
		p.mu.Unlock()
	}
	return make([]T, n)
}

// PutSlice returns a buffer lent by GetSlice. A nil or zero-capacity slice is
// ignored, so the empty loan and a never-filled field need no special case.
func PutSlice[T semiring.Number](p *ScratchPool, s []T) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.loans--
	fl := listsOf[T](p)
	fl.slices = append(fl.slices, s[:0])
	p.mu.Unlock()
}

// Ones returns n ones of type T for a pattern operand's Val: one shared,
// read-only slice per element type, which every block of every structural
// matrix built on this arena aliases (DESIGN.md §15). It is a constant, not a
// loan — never written, never returned, never invalidated: a request for more
// than the arena holds replaces the slice, and earlier holders keep theirs.
func Ones[T semiring.Number](p *ScratchPool, n int) []T {
	if p != nil {
		p.mu.Lock()
		held := listsOf[T](p).ones
		p.mu.Unlock()
		if len(held) >= n {
			return held[:n:n]
		}
	}
	size := n
	if p != nil {
		// Headroom, so a streaming graph growing by a few edges per epoch
		// does not replace the slice on every query.
		size += n / 4
	}
	grown := make([]T, size)
	for i := range grown {
		grown[i] = 1
	}
	if p != nil {
		p.mu.Lock()
		if fl := listsOf[T](p); len(fl.ones) < len(grown) {
			fl.ones = grown
		}
		p.mu.Unlock()
	}
	return grown[:n:n]
}

// GetAtomicSPA checks out an atomic SPA over [0, n), reset and ready.
func GetAtomicSPA[T semiring.Number](p *ScratchPool, n int) *AtomicSPA[T] {
	if p != nil {
		p.mu.Lock()
		p.loans++
		s := pop(&listsOf[T](p).atomics)
		p.mu.Unlock()
		if s != nil {
			s.Grow(n)
			return s
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
	p.mu.Lock()
	p.loans--
	fl := listsOf[T](p)
	fl.atomics = append(fl.atomics, s)
	p.mu.Unlock()
}

// GetSPA checks out a sequential SPA over [0, n), reset and ready.
func GetSPA[T semiring.Number](p *ScratchPool, n int) *SPA[T] {
	if p != nil {
		p.mu.Lock()
		p.loans++
		s := pop(&listsOf[T](p).spas)
		p.mu.Unlock()
		if s != nil {
			s.Grow(n)
			return s
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
	p.mu.Lock()
	p.loans--
	fl := listsOf[T](p)
	fl.spas = append(fl.spas, s)
	p.mu.Unlock()
}

// GetBucketSPA checks out a bucketed SPA reconfigured for (n, workers,
// buckets), with clean dense scratch and empty runs.
func GetBucketSPA[T semiring.Number](p *ScratchPool, n, workers, buckets int) *BucketSPA[T] {
	if p != nil {
		p.mu.Lock()
		p.loans++
		s := pop(&listsOf[T](p).buckets)
		p.mu.Unlock()
		if s != nil {
			s.Reconfigure(n, workers, buckets)
			return s
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
	p.mu.Lock()
	p.loans--
	fl := listsOf[T](p)
	fl.buckets = append(fl.buckets, s)
	p.mu.Unlock()
}

// GetVec checks out an empty sparse vector of capacity n whose Ind/Val
// backing arrays are reused across checkouts. Unlike the loans above, the
// caller owns the vector — kernels hand it on as their result — and whoever
// ends up with it returns it with PutVec if it was scratch, or keeps it (a
// result handed to user code); either way the next call finds the list no
// longer than before. Vectors are not counted by Outstanding.
func GetVec[T semiring.Number](p *ScratchPool, n int) *Vec[T] {
	if p != nil {
		p.mu.Lock()
		w := pop(&listsOf[T](p).vecs)
		p.mu.Unlock()
		if w != nil {
			w.N = n
			return w
		}
	}
	return NewVec[T](n)
}

// PutVec returns a vector checked out with GetVec to the arena. Only those:
// every vector put without a GetVec behind it lengthens the free list for good.
func PutVec[T semiring.Number](p *ScratchPool, v *Vec[T]) {
	if p == nil || v == nil {
		return
	}
	v.Ind = v.Ind[:0]
	v.Val = v.Val[:0]
	p.mu.Lock()
	fl := listsOf[T](p)
	fl.vecs = append(fl.vecs, v)
	p.mu.Unlock()
}

// GetDCSC checks out an empty doubly-compressed block whose backing arrays
// are reused across checkouts; fill it with FromCSR. The caller owns it
// until PutDCSC.
func GetDCSC[T semiring.Number](p *ScratchPool) *DCSC[T] {
	if p != nil {
		p.mu.Lock()
		p.loans++
		d := pop(&listsOf[T](p).dcscs)
		p.mu.Unlock()
		if d != nil {
			return d
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
	p.mu.Lock()
	p.loans--
	fl := listsOf[T](p)
	fl.dcscs = append(fl.dcscs, d)
	p.mu.Unlock()
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
		p.mu.Lock()
		p.loans++
		set = pop(&listsOf[T](p).csrs)
		p.mu.Unlock()
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
	if p == nil {
		return
	}
	p.mu.Lock()
	p.loans--
	fl := listsOf[T](p)
	fl.csrs = append(fl.csrs, set)
	p.mu.Unlock()
}
