package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
)

func TestVecBasics(t *testing.T) {
	v := NewVec[float64](10)
	if v.NNZ() != 0 || v.Capacity() != 10 || v.Density() != 0 {
		t.Fatal("empty vector accessors wrong")
	}
	if err := v.Set(3, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := v.Set(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := v.Set(7, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", v.NNZ())
	}
	if x, ok := v.Get(1); !ok || x != 2.5 {
		t.Errorf("Get(1) = %v,%v", x, ok)
	}
	if x, ok := v.Get(3); !ok || x != 1.5 {
		t.Errorf("Get(3) = %v,%v", x, ok)
	}
	if _, ok := v.Get(5); ok {
		t.Error("Get(5) should be absent")
	}
	// Overwrite existing.
	if err := v.Set(3, 9); err != nil {
		t.Fatal(err)
	}
	if x, _ := v.Get(3); x != 9 {
		t.Errorf("Get(3) after overwrite = %v", x)
	}
	if v.NNZ() != 3 {
		t.Errorf("overwrite changed nnz to %d", v.NNZ())
	}
	if got := v.Density(); got != 0.3 {
		t.Errorf("density = %v, want 0.3", got)
	}
}

func TestVecSetOutOfRange(t *testing.T) {
	v := NewVec[int](4)
	if err := v.Set(-1, 1); err == nil {
		t.Error("Set(-1) should fail")
	}
	if err := v.Set(4, 1); err == nil {
		t.Error("Set(4) should fail")
	}
}

func TestVecOf(t *testing.T) {
	v, err := VecOf(10, []int{5, 1, 8}, []int{50, 10, 80})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 5, 8}
	for k, i := range want {
		if v.Ind[k] != i {
			t.Fatalf("indices not sorted: %v", v.Ind)
		}
	}
	if x, _ := v.Get(8); x != 80 {
		t.Errorf("value did not follow its index in sort")
	}
	if _, err := VecOf(10, []int{1, 2}, []int{1}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := VecOf(10, []int{1, 1}, []int{1, 2}); err == nil {
		t.Error("duplicate indices should fail validation")
	}
	if _, err := VecOf(3, []int{5}, []int{1}); err == nil {
		t.Error("out-of-range index should fail validation")
	}
}

func TestVecCloneEqualClear(t *testing.T) {
	v, _ := VecOf(6, []int{0, 2, 4}, []float64{1, 2, 3})
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone not equal")
	}
	w.Val[1] = 99
	if v.Equal(w) {
		t.Fatal("mutating clone affected original comparison")
	}
	if v.Val[1] == 99 {
		t.Fatal("clone aliased original storage")
	}
	v.Clear()
	if v.NNZ() != 0 || v.Capacity() != 6 {
		t.Fatal("clear wrong")
	}
	// Different capacity compares unequal even with same entries.
	a, _ := VecOf(5, []int{1}, []int{1})
	b, _ := VecOf(6, []int{1}, []int{1})
	if a.Equal(b) {
		t.Error("different capacities should be unequal")
	}
}

func TestVecDenseRoundTrip(t *testing.T) {
	v, _ := VecOf(8, []int{1, 3, 6}, []int{10, 30, 60})
	d := v.ToDense(0)
	if len(d) != 8 || d[0] != 0 || d[1] != 10 || d[3] != 30 || d[6] != 60 {
		t.Fatalf("ToDense wrong: %v", d)
	}
	back := vecFromDense(d, 0)
	if !v.Equal(back) {
		t.Fatalf("round trip wrong: %v vs %v", v, back)
	}
	// Non-zero fill.
	df := v.ToDense(-1)
	if df[0] != -1 || df[1] != 10 {
		t.Fatalf("ToDense fill wrong: %v", df)
	}
	backf := vecFromDense(df, -1)
	if !v.Equal(backf) {
		t.Fatalf("round trip with fill wrong")
	}
}

func TestVecDenseRoundTripQuick(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		d := make([]int32, n)
		for i, r := range raw {
			d[i%n] = int32(r % 5) // small value range forces zeros
		}
		v := vecFromDense(d, 0)
		if err := v.Validate(); err != nil {
			return false
		}
		back := v.ToDense(0)
		for i := range d {
			if back[i] != d[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseVec(t *testing.T) {
	d := NewDense[float64](5)
	if d.Len() != 5 {
		t.Fatal("len wrong")
	}
	d.Set(2, 7)
	if d.Get(2) != 7 || d.Get(1) != 0 {
		t.Fatal("get/set wrong")
	}
	e := d.Clone()
	if !d.Equal(e) {
		t.Fatal("clone not equal")
	}
	e.Set(0, 1)
	if d.Equal(e) {
		t.Fatal("clone aliases original")
	}
	f := NewDenseFill(5, 3.0)
	for i := 0; i < 5; i++ {
		if f.Get(i) != 3 {
			t.Fatal("fill wrong")
		}
	}
	if f.Equal(NewDense[float64](4)) {
		t.Fatal("length mismatch should be unequal")
	}
}

func TestVecValidateDetectsCorruption(t *testing.T) {
	v, _ := VecOf(10, []int{1, 5}, []int{1, 2})
	v.Ind[1] = 0 // out of order
	if err := v.Validate(); err == nil {
		t.Error("unsorted indices not detected")
	}
	v.Ind[1] = 99 // out of range
	if err := v.Validate(); err == nil {
		t.Error("out-of-range index not detected")
	}
	v.Ind = v.Ind[:1] // length mismatch
	if err := v.Validate(); err == nil {
		t.Error("length mismatch not detected")
	}
}

func TestVecString(t *testing.T) {
	v, _ := VecOf(5, []int{1, 3}, []int{10, 30})
	if s := v.String(); s == "" {
		t.Error("empty String()")
	}
	big := RandomVec[int](1000, 100, 1)
	if s := big.String(); s == "" {
		t.Error("empty String() for big vector")
	}
}

func TestVecGetRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 1000
	v := NewVec[int64](n)
	ref := map[int]int64{}
	for iter := 0; iter < 500; iter++ {
		i := rng.Intn(n)
		x := rng.Int63n(1000)
		if err := v.Set(i, x); err != nil {
			t.Fatal(err)
		}
		ref[i] = x
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != len(ref) {
		t.Fatalf("nnz = %d, want %d", v.NNZ(), len(ref))
	}
	for i := 0; i < n; i++ {
		got, ok := v.Get(i)
		want, wantOK := ref[i]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("Get(%d) = %d,%v; want %d,%v", i, got, ok, want, wantOK)
		}
	}
}

// vecFromDense gathers the entries of d that differ from fill into a sparse
// vector of capacity len(d).
func vecFromDense[T semiring.Number](d []T, fill T) *Vec[T] {
	v := NewVec[T](len(d))
	for i, x := range d {
		if x != fill {
			v.Ind = append(v.Ind, i)
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// Capacity returns the logical length N of the vector.
func (v *Vec[T]) Capacity() int { return v.N }

// Density returns nnz(x)/capacity(x), the f of the paper.
func (v *Vec[T]) Density() float64 {
	if v.N == 0 {
		return 0
	}
	return float64(len(v.Ind)) / float64(v.N)
}
