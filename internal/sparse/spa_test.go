package sparse

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/semiring"
)

func TestSPAScatterGather(t *testing.T) {
	s := NewSPA[int](10)
	s.Scatter(3, 5, semiring.Plus[int])
	s.Scatter(7, 1, semiring.Plus[int])
	s.Scatter(3, 2, semiring.Plus[int]) // accumulate
	if s.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", s.NNZ())
	}
	v := s.Gather(func(xs []int) { sort.Ints(xs) })
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if x, _ := v.Get(3); x != 7 {
		t.Errorf("accumulated value = %d, want 7", x)
	}
	if x, _ := v.Get(7); x != 1 {
		t.Errorf("value = %d, want 1", x)
	}
	// Gather resets the SPA.
	if s.NNZ() != 0 {
		t.Fatal("gather did not reset")
	}
	s.Scatter(1, 4, semiring.Plus[int])
	v2 := s.Gather(func(xs []int) { sort.Ints(xs) })
	if v2.NNZ() != 1 {
		t.Fatalf("reuse after reset broken: nnz=%d", v2.NNZ())
	}
	if x, _ := v2.Get(1); x != 4 {
		t.Fatal("stale value after reset")
	}
}

func TestSPAScatterFirst(t *testing.T) {
	s := NewSPA[int](5)
	s.ScatterFirst(2, 10)
	s.ScatterFirst(2, 99) // ignored: first wins
	v := s.Gather(func(xs []int) { sort.Ints(xs) })
	if x, _ := v.Get(2); x != 10 {
		t.Errorf("first-wins value = %d, want 10", x)
	}
}

func TestSPAMinAccumulate(t *testing.T) {
	s := NewSPA[int64](4)
	s.Scatter(0, 9, semiring.Min[int64])
	s.Scatter(0, 3, semiring.Min[int64])
	s.Scatter(0, 7, semiring.Min[int64])
	v := s.Gather(func(xs []int) { sort.Ints(xs) })
	if x, _ := v.Get(0); x != 3 {
		t.Errorf("min accumulate = %d, want 3", x)
	}
}

func TestAtomicSPASequential(t *testing.T) {
	s := NewAtomicSPA[int](8)
	if !s.TryClaim(3) {
		t.Fatal("first claim failed")
	}
	if s.TryClaim(3) || s.Claim(3) {
		t.Fatal("second claim of same index succeeded")
	}
	if !s.TryClaim(5) {
		t.Fatal("claim of fresh index failed")
	}
	inds := s.CompactInds()
	if len(inds) != 2 {
		t.Fatalf("compact count = %d, want 2", len(inds))
	}
	sort.Ints(inds)
	if inds[0] != 3 || inds[1] != 5 {
		t.Fatalf("compact inds = %v", inds)
	}
	s.Reset()
	if len(s.CompactInds()) != 0 {
		t.Fatal("reset incomplete")
	}

	// The single-writer claim keeps discovery order and sees the atomic
	// claims' flags, as they see its.
	for _, i := range []int{6, 3, 0, 6, 3} {
		s.Claim(i)
	}
	if got := s.CompactInds(); !slices.Equal(got, []int{6, 3, 0}) {
		t.Fatalf("Claim compacted %v, want [6 3 0]", got)
	}
	if s.TryClaim(0) || !s.TryClaim(7) || s.Claim(7) {
		t.Fatal("Claim and TryClaim disagree about claimed positions")
	}
	s.Reset()
	if len(s.CompactInds()) != 0 {
		t.Fatal("reset after Claim incomplete")
	}
	for i := 0; i < 8; i++ {
		if !s.Claim(i) {
			t.Fatalf("claim of %d after reset failed", i)
		}
	}
	if got := s.CompactInds(); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("full claim compacted %v", got)
	}
}

// TestAtomicSPAClaimThenTryClaim runs a single-writer Claim phase, returns
// the SPA to the arena, checks it out again and runs a concurrent TryClaim
// phase on it. Under -race this checks that the plain accesses of the first
// phase are ordered before the atomic ones of the second by the arena
// hand-off, as the one-worker and many-worker SpMSpV calls sharing one
// runtime rely on.
func TestAtomicSPAClaimThenTryClaim(t *testing.T) {
	const n = 1 << 10
	p := NewScratchPool()
	s := GetAtomicSPA[int64](p, n)
	for i := 0; i < n; i += 3 {
		s.Claim(i)
	}
	if got := len(s.CompactInds()); got != (n+2)/3 {
		t.Fatalf("Claim phase compacted %d, want %d", got, (n+2)/3)
	}
	PutAtomicSPA(p, s)
	s2 := GetAtomicSPA[int64](p, n)
	if s2 != s {
		t.Fatal("arena did not hand the SPA back")
	}
	const workers = 4
	var wg sync.WaitGroup
	wins := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if s2.TryClaim((i*5 + w) % n) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range wins {
		total += c
	}
	inds := slices.Sorted(slices.Values(s2.CompactInds()))
	if total != n || len(inds) != n {
		t.Fatalf("%d wins, %d compacted; want %d each", total, len(inds), n)
	}
	for k, i := range inds {
		if i != k {
			t.Fatalf("compacted list is not a permutation of [0, %d): %d at %d", n, i, k)
		}
	}
	PutAtomicSPA(p, s2)
	if p.Outstanding() != 0 {
		t.Fatal("arena loan leaked")
	}
}

func TestAtomicSPAConcurrent(t *testing.T) {
	// Many goroutines hammer overlapping index ranges; every index must be
	// claimed exactly once and the compacted list must be a permutation of
	// the claimed set. Run with -race to validate the synchronization.
	n := 1 << 12
	s := NewAtomicSPA[int](n)
	workers := 8
	var wg sync.WaitGroup
	claims := make([][]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				idx := (i*7 + w) % n // overlapping strides
				if s.TryClaim(idx) {
					claims[w] = append(claims[w], idx)
				}
			}
		}(w)
	}
	wg.Wait()
	totalClaims := 0
	seen := make([]bool, n)
	for _, c := range claims {
		totalClaims += len(c)
		for _, i := range c {
			if seen[i] {
				t.Fatalf("index %d claimed twice", i)
			}
			seen[i] = true
		}
	}
	inds := append([]int(nil), s.CompactInds()...)
	if len(inds) != totalClaims {
		t.Fatalf("compacted %d inds, but %d claims succeeded", len(inds), totalClaims)
	}
	sort.Ints(inds)
	for k := 1; k < len(inds); k++ {
		if inds[k] == inds[k-1] {
			t.Fatalf("duplicate in compacted list: %d", inds[k])
		}
	}
}

func TestSPAGatherWithRadix(t *testing.T) {
	s := NewSPA[int](100)
	for _, i := range []int{42, 7, 99, 0, 55} {
		s.Scatter(i, i*2, semiring.Plus[int])
	}
	v := s.Gather(func(xs []int) { RadixSortInts(xs) })
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 5 {
		t.Fatal("nnz wrong")
	}
	for _, i := range []int{0, 7, 42, 55, 99} {
		if x, ok := v.Get(i); !ok || x != i*2 {
			t.Fatalf("value at %d = %d,%v", i, x, ok)
		}
	}
}

// ScatterFirst records v at position i only if the position was untouched,
// mirroring the paper's "only keeping the first index" logic.
func (s *SPA[T]) ScatterFirst(i int, v T) {
	if !s.IsThere[i] {
		s.IsThere[i] = true
		s.Val[i] = v
		s.NzInds = append(s.NzInds, i)
	}
}

// Gather produces the sparse result vector (capacity n = len(Val)) with
// indices sorted, then resets the SPA for reuse. Sorting uses the supplied
// sort function so callers can choose merge sort vs radix sort (the paper's
// ablation).
func (s *SPA[T]) Gather(sortFn func([]int)) *Vec[T] {
	sortFn(s.NzInds)
	out := &Vec[T]{
		N:   len(s.Val),
		Ind: append([]int(nil), s.NzInds...),
		Val: make([]T, len(s.NzInds)),
	}
	for k, i := range out.Ind {
		out.Val[k] = s.Val[i]
	}
	s.Reset()
	return out
}
