package core

import (
	"fmt"
	"math/rand"
	"repro/internal/semiring"
	"testing"

	"repro/internal/dist"
	"repro/internal/sparse"
)

func TestAssignIndexedBasic(t *testing.T) {
	a, _ := sparse.VecOf(10, []int{0, 2, 5, 9}, []int64{10, 20, 50, 90})
	// Assign into positions {2, 5, 7}: b[0]=200 -> a[2], b[1] absent -> clear
	// a[5], b[2]=700 -> a[7].
	b, _ := sparse.VecOf(3, []int{0, 2}, []int64{200, 700})
	if err := AssignIndexed(a, []int{2, 5, 7}, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Get(2); v != 200 {
		t.Errorf("a[2] = %d, want 200", v)
	}
	if _, ok := a.Get(5); ok {
		t.Error("a[5] should be cleared (absent from b)")
	}
	if v, ok := a.Get(7); !ok || v != 700 {
		t.Error("a[7] should be inserted")
	}
	// Untargeted positions untouched.
	if v, _ := a.Get(0); v != 10 {
		t.Error("a[0] changed")
	}
	if v, _ := a.Get(9); v != 90 {
		t.Error("a[9] changed")
	}
	if a.NNZ() != 4 {
		t.Errorf("nnz = %d, want 4", a.NNZ())
	}
}

func TestAssignIndexedErrors(t *testing.T) {
	a := sparse.NewVec[int64](10)
	b := sparse.NewVec[int64](2)
	if err := AssignIndexed(a, []int{1}, b); err == nil {
		t.Error("capacity mismatch accepted")
	}
	b3 := sparse.NewVec[int64](3)
	if err := AssignIndexed(a, []int{1, 1, 2}, b3); err == nil {
		t.Error("duplicate indices accepted")
	}
	if err := AssignIndexed(a, []int{1, 2, 99}, b3); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestAssignIndexedRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 200
	for trial := 0; trial < 20; trial++ {
		a := sparse.RandomVec[int64](n, 40, int64(trial))
		ref := map[int]int64{}
		for k, i := range a.Ind {
			ref[i] = a.Val[k]
		}
		// Random distinct index set.
		perm := rng.Perm(n)[:30]
		b := sparse.NewVec[int64](30)
		for k := 0; k < 30; k++ {
			if rng.Intn(2) == 0 {
				if err := b.Set(k, int64(1000+k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k, i := range perm {
			if v, ok := b.Get(k); ok {
				ref[i] = v
			} else {
				delete(ref, i)
			}
		}
		if err := AssignIndexed(a, perm, b); err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if a.NNZ() != len(ref) {
			t.Fatalf("trial %d: nnz = %d, want %d", trial, a.NNZ(), len(ref))
		}
		for i, want := range ref {
			if got, ok := a.Get(i); !ok || got != want {
				t.Fatalf("trial %d: a[%d] = %d,%v, want %d", trial, i, got, ok, want)
			}
		}
	}
}

func TestAssignIndexedDistMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n := 300
	a0 := sparse.RandomVec[int64](n, 60, 73)
	perm := rng.Perm(n)[:50]
	b0 := sparse.NewVec[int64](50)
	for k := 0; k < 50; k += 2 {
		if err := b0.Set(k, int64(5000+k)); err != nil {
			t.Fatal(err)
		}
	}
	want := a0.Clone()
	if err := AssignIndexed(want, perm, b0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 9} {
		rt := newRT(t, p, 24)
		a := dist.SpVecFromVec(rt, a0)
		b := dist.SpVecFromVec(rt, b0)
		if err := AssignIndexedDist(rt, a, perm, b); err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !a.ToVec().Equal(want) {
			t.Fatalf("p=%d: distributed indexed assign differs", p)
		}
	}
}

func TestExtractDistMatchesLocal(t *testing.T) {
	a0 := sparse.RandomVec[int64](300, 100, 74)
	indices := []int{299, 0, 37, 150, 151, 152, 9}
	want, err := Extract(a0, indices)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 8} {
		rt := newRT(t, p, 24)
		a := dist.SpVecFromVec(rt, a0)
		got, err := ExtractDist(rt, a, indices)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !got.ToVec().Equal(want) {
			t.Fatalf("p=%d: distributed extract differs", p)
		}
	}
	rt := newRT(t, 4, 8)
	a := dist.SpVecFromVec(rt, a0)
	if _, err := ExtractDist(rt, a, []int{-1}); err == nil {
		t.Error("bad index accepted")
	}
}

// AssignIndexed performs a(I) = b on local vectors: position I[k] of a
// receives b[k] when stored in b, and is cleared when absent from b (GraphBLAS
// replace semantics restricted to the positions listed in I). Positions of a
// outside I are untouched. I must contain distinct in-range indices, and b's
// capacity must equal len(I).
func AssignIndexed[T semiring.Number](a *sparse.Vec[T], indices []int, b *sparse.Vec[T]) error {
	if b.N != len(indices) {
		return fmt.Errorf("core: AssignIndexed: b has capacity %d for %d indices", b.N, len(indices))
	}
	seen := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= a.N {
			return fmt.Errorf("core: AssignIndexed: index %d out of range [0,%d)", i, a.N)
		}
		if seen[i] {
			return fmt.Errorf("core: AssignIndexed: duplicate index %d", i)
		}
		seen[i] = true
	}
	// New value (or deletion) per targeted position.
	newVal := make(map[int]T, b.NNZ())
	for k, i := range indices {
		if v, ok := b.Get(k); ok {
			newVal[i] = v
		}
	}
	out := sparse.NewVec[T](a.N)
	// Merge: keep untargeted entries of a; insert/overwrite targeted ones.
	bi := 0
	targeted := make([]int, 0, len(newVal))
	for i := range newVal {
		targeted = append(targeted, i)
	}
	sparse.RadixSortInts(targeted)
	ai := 0
	for ai < len(a.Ind) || bi < len(targeted) {
		switch {
		case bi >= len(targeted) || (ai < len(a.Ind) && a.Ind[ai] < targeted[bi]):
			i := a.Ind[ai]
			if !seen[i] {
				out.Ind = append(out.Ind, i)
				out.Val = append(out.Val, a.Val[ai])
			}
			ai++
		case ai >= len(a.Ind) || targeted[bi] < a.Ind[ai]:
			i := targeted[bi]
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, newVal[i])
			bi++
		default: // equal index: targeted value wins
			i := targeted[bi]
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, newVal[i])
			ai++
			bi++
		}
	}
	a.Ind = out.Ind
	a.Val = out.Val
	return nil
}
