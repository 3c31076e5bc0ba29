package sparse

import (
	"runtime"
	"testing"

	"repro/internal/semiring"
)

// Pooled checkouts must be indistinguishable from fresh allocations: correct
// length, clean state where the contract promises it, and safe on a nil pool.

func TestScratchPoolSliceRoundTrip(t *testing.T) {
	p := NewScratchPool()
	a := GetSlice[int](p, 100)
	if len(a) != 100 {
		t.Fatalf("GetSlice(100) returned len %d", len(a))
	}
	for i := range a {
		a[i] = i
	}
	PutSlice(p, a)
	// A smaller request must reuse the pooled buffer (same backing array).
	b := GetSlice[int](p, 50)
	if len(b) != 50 {
		t.Fatalf("GetSlice(50) returned len %d", len(b))
	}
	if cap(b) < 100 {
		t.Fatalf("pooled buffer not reused: cap %d", cap(b))
	}
	// A larger request must fall through to a fresh allocation.
	PutSlice(p, b)
	c := GetSlice[int](p, 500)
	if len(c) != 500 {
		t.Fatalf("GetSlice(500) returned len %d", len(c))
	}
	if p.Outstanding() != 1 {
		t.Fatalf("one loan is out, Outstanding() = %d", p.Outstanding())
	}
	PutSlice(p, c)
	// The empty loan is nil and is not counted; returning it is a no-op.
	if e := GetSlice[int](p, 0); e != nil || p.Outstanding() != 0 {
		t.Fatalf("empty loan = %v, Outstanding() = %d", e, p.Outstanding())
	}
	PutSlice[int](p, nil)
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding() = %d after every loan came back", p.Outstanding())
	}
}

// A graph that grows makes every round's buffer a miss. The replacement takes
// the place of a buffer it outgrew, so the list holds as many buffers as were
// ever on loan at once, not one per miss.
func TestScratchPoolSliceMissesDoNotPileUp(t *testing.T) {
	p := NewScratchPool()
	for n := 1; n <= 200; n++ {
		a, b := GetSlice[float64](p, n), GetSlice[float64](p, 2*n) // two at once
		PutSlice(p, a)
		PutSlice(p, b)
		if held := p.Held(); held != 2 {
			t.Fatalf("after round %d the arena holds %d buffers, want 2", n, held)
		}
	}
	// Buffers of another element type are not candidates for the drop.
	PutSlice(p, GetSlice[int](p, 5))
	PutSlice(p, GetSlice[float64](p, 1000))
	if held := p.Held(); held != 3 {
		t.Fatalf("the arena holds %d buffers, want 2 float64 + 1 int", held)
	}
}

func TestScratchPoolNilSafe(t *testing.T) {
	var p *ScratchPool
	if got := GetSlice[int](p, 10); len(got) != 10 {
		t.Fatalf("nil pool GetSlice[int]: len %d", len(got))
	}
	PutSlice(p, make([]int, 5))
	if got := GetSlice[float64](p, 10); len(got) != 10 {
		t.Fatalf("nil pool GetSlice[float64]: len %d", len(got))
	}
	if got := Ones[int64](p, 3); len(got) != 3 || got[0] != 1 || got[2] != 1 {
		t.Fatalf("nil pool Ones: %v", got)
	}
	if s := GetSPA[int64](p, 10); s == nil || len(s.IsThere) != 10 {
		t.Fatal("nil pool GetSPA broken")
	}
	if s := GetAtomicSPA[int64](p, 10); s == nil {
		t.Fatal("nil pool GetAtomicSPA broken")
	}
	if s := GetBucketSPA[int64](p, 10, 2, 2); s == nil {
		t.Fatal("nil pool GetBucketSPA broken")
	}
	if v := GetVec[int64](p, 10); v == nil || v.N != 10 || len(v.Ind) != 0 {
		t.Fatal("nil pool GetVec broken")
	}
	if d := GetDCSC[int64](p); d == nil {
		t.Fatal("nil pool GetDCSC broken")
	}
	if set := GetCSRs[int64](p, 3); len(set) != 3 || set[2] == nil {
		t.Fatal("nil pool GetCSRs broken")
	}
	PutSPA(p, NewSPA[int64](4))
	PutAtomicSPA(p, NewAtomicSPA[int64](4))
	PutBucketSPA(p, NewBucketSPA[int64](4, 1, 1))
	PutVec(p, NewVec[int64](4))
	PutDCSC(p, &DCSC[int64]{})
	PutCSRs(p, []*CSR[int64]{{}})
	if p.Outstanding() != 0 {
		t.Fatal("nil pool counts loans")
	}
}

// TestScratchPoolTypedAndCollectorProof is the arena's two guarantees: what
// one element type returned is still there for it after other element types
// have checked the same categories in and out, and after a garbage
// collection. Every category is covered; identity is by pointer.
func TestScratchPoolTypedAndCollectorProof(t *testing.T) {
	p := NewScratchPool()
	fs := GetSlice[float64](p, 64)
	fspa := GetSPA[float64](p, 8)
	fat := GetAtomicSPA[float64](p, 8)
	fb := GetBucketSPA[float64](p, 8, 1, 1)
	fv := GetVec[float64](p, 8)
	fd := GetDCSC[float64](p)
	fc := GetCSRs[float64](p, 2)
	if got := p.Outstanding(); got != 6 { // the vector is owned, not lent
		t.Fatalf("Outstanding() = %d with six loans out", got)
	}
	PutSlice(p, fs)
	PutSPA(p, fspa)
	PutAtomicSPA(p, fat)
	PutBucketSPA(p, fb)
	PutVec(p, fv)
	PutDCSC(p, fd)
	PutCSRs(p, fc)

	// Another element type works the same categories, with a collection in
	// the middle.
	is := GetSlice[int64](p, 64)
	ispa := GetSPA[int64](p, 8)
	iat := GetAtomicSPA[int64](p, 8)
	ib := GetBucketSPA[int64](p, 8, 1, 1)
	iv := GetVec[int64](p, 8)
	id := GetDCSC[int64](p)
	ic := GetCSRs[int64](p, 2)
	runtime.GC()
	runtime.GC()
	PutSlice(p, is)
	PutSPA(p, ispa)
	PutAtomicSPA(p, iat)
	PutBucketSPA(p, ib)
	PutVec(p, iv)
	PutDCSC(p, id)
	PutCSRs(p, ic)

	if got := GetSlice[float64](p, 64); &got[0] != &fs[0] {
		t.Error("float64 slice was not kept")
	}
	if GetSPA[float64](p, 8) != fspa {
		t.Error("float64 SPA was not kept")
	}
	if GetAtomicSPA[float64](p, 8) != fat {
		t.Error("float64 atomic SPA was not kept")
	}
	if GetBucketSPA[float64](p, 8, 1, 1) != fb {
		t.Error("float64 bucket SPA was not kept")
	}
	if GetVec[float64](p, 8) != fv {
		t.Error("float64 vector was not kept")
	}
	if GetDCSC[float64](p) != fd {
		t.Error("float64 DCSC was not kept")
	}
	if got := GetCSRs[float64](p, 2); got[0] != fc[0] || got[1] != fc[1] {
		t.Error("float64 CSR set was not kept")
	}
	if GetSPA[int64](p, 8) != ispa {
		t.Error("int64 SPA was not kept")
	}
}

// TestScratchPoolSliceLoanAllocatesNothing: a warm loan and its return are a
// pop and a push under the mutex, for any element type.
func TestScratchPoolSliceLoanAllocatesNothing(t *testing.T) {
	p := NewScratchPool()
	PutSlice(p, GetSlice[float64](p, 256))
	PutSlice(p, GetSlice[int32](p, 256))
	if avg := testing.AllocsPerRun(100, func() {
		f := GetSlice[float64](p, 200)
		i := GetSlice[int32](p, 100)
		PutSlice(p, i)
		PutSlice(p, f)
	}); avg != 0 {
		t.Fatalf("a warm slice loan allocates %.1f objects, want 0", avg)
	}
}

// TestScratchPoolOnes: the shared ones slice is one array per element type,
// replaced (never grown in place) when a longer one is asked for, so an
// earlier holder's slice stays valid and all ones; nobody can append into it.
func TestScratchPoolOnes(t *testing.T) {
	p := NewScratchPool()
	a := Ones[int64](p, 100)
	b := Ones[int64](p, 40)
	if len(a) != 100 || len(b) != 40 || cap(b) != 40 || &a[0] != &b[0] {
		t.Fatalf("two requests the arena can serve must alias one array (len %d cap %d / len %d cap %d)", len(a), cap(a), len(b), cap(b))
	}
	big := Ones[int64](p, 1000)
	if &big[0] == &a[0] {
		t.Fatal("a longer request must replace the slice")
	}
	for _, s := range [][]int64{a, b, big} {
		for i, v := range s {
			if v != 1 {
				t.Fatalf("ones[%d] = %d", i, v)
			}
		}
	}
	if f := Ones[float64](p, 10); len(f) != 10 || f[9] != 1 {
		t.Fatalf("float64 ones = %v", f)
	}
	if p.Outstanding() != 0 {
		t.Fatal("the ones slice is a constant, not a loan")
	}
}

// TestScratchPoolSPAComesBackClean dirties a SPA, returns it, and verifies the
// next checkout observes the Reset invariant (all flags false) at both the
// same and a larger domain size.
func TestScratchPoolSPAComesBackClean(t *testing.T) {
	p := NewScratchPool()
	s := GetSPA[int64](p, 50)
	s.Scatter(7, 1, nil)
	s.Scatter(31, 2, nil)
	PutSPA(p, s)
	for _, n := range []int{50, 200} {
		s2 := GetSPA[int64](p, n)
		for i, f := range s2.IsThere {
			if f {
				t.Fatalf("n=%d: pooled SPA dirty at %d", n, i)
			}
		}
		if len(s2.IsThere) != n {
			t.Fatalf("n=%d: pooled SPA has domain %d", n, len(s2.IsThere))
		}
		PutSPA(p, s2)
	}
}

// TestScratchPoolBucketSPAReuseMatchesFresh runs the same scatter+merge on a
// pooled (previously used) BucketSPA and on a fresh one, at several
// configurations, and demands identical output — the MergeInto self-cleaning
// contract PutBucketSPA relies on.
func TestScratchPoolBucketSPAReuseMatchesFresh(t *testing.T) {
	p := NewScratchPool()
	run := func(s *BucketSPA[int64], n, workers int) ([]int, []int64) {
		for w := 0; w < workers; w++ {
			for k := w; k < 4*n/5; k += workers {
				s.Append(w, (k*7)%n, int64(k))
			}
		}
		ind, val, _ := s.Merge(nil, workers)
		return ind, val
	}
	configs := []struct{ n, workers, buckets int }{
		{64, 1, 1}, {64, 2, 4}, {1000, 4, 8}, {64, 2, 4}, // repeat to hit the pooled object
	}
	for ci, c := range configs {
		pooled := GetBucketSPA[int64](p, c.n, c.workers, c.buckets)
		gi, gv := run(pooled, c.n, c.workers)
		PutBucketSPA(p, pooled)
		fresh := NewBucketSPA[int64](c.n, c.workers, c.buckets)
		wi, wv := run(fresh, c.n, c.workers)
		if len(gi) != len(wi) {
			t.Fatalf("config %d: pooled emitted %d entries, fresh %d", ci, len(gi), len(wi))
		}
		for k := range gi {
			if gi[k] != wi[k] || gv[k] != wv[k] {
				t.Fatalf("config %d: pooled and fresh diverge at %d: (%d,%d) vs (%d,%d)",
					ci, k, gi[k], gv[k], wi[k], wv[k])
			}
		}
	}
}

// FuzzScratchPool drives an arbitrary interleaving of loans and returns over
// three element types, checking the length contract, that a buffer is never
// live in two hands (each loan is stamped and verified before return), and
// that the arena's count of outstanding loans is exact throughout.
func FuzzScratchPool(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 255, 128, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewScratchPool()
		var live []func() // each verifies its loan's stamp and returns it
		stamp := 0
		for _, op := range ops {
			if op >= 128 && len(live) > 0 { // return the oldest loan
				live[0]()
				live = live[1:]
			} else {
				n := int(op%64) + 1
				stamp++
				switch op % 3 {
				case 0:
					live = append(live, fuzzLoan[int](t, p, n, stamp))
				case 1:
					live = append(live, fuzzLoan[int64](t, p, n, stamp))
				default:
					live = append(live, fuzzLoan[float64](t, p, n, stamp))
				}
			}
			if got := p.Outstanding(); got != len(live) {
				t.Fatalf("Outstanding() = %d with %d loans held", got, len(live))
			}
		}
	})
}

// fuzzLoan takes one stamped loan and returns the function that checks the
// stamp survived and gives the loan back.
func fuzzLoan[T semiring.Number](t *testing.T, p *ScratchPool, n, stamp int) func() {
	s := GetSlice[T](p, n)
	if len(s) != n {
		t.Fatalf("GetSlice(%d) returned len %d", n, len(s))
	}
	for i := range s {
		s[i] = T(stamp)
	}
	return func() {
		for i, v := range s {
			if v != T(stamp) {
				t.Fatalf("buffer aliased while held: [%d]=%v, want stamp %d", i, v, stamp)
			}
		}
		PutSlice(p, s)
	}
}
