package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

func TestApplyVecAndCSR(t *testing.T) {
	m := sparse.Ring[int64](4)
	ApplyCSR(m, func(x int64) int64 { return x + 5 })
	if a, _ := m.Get(0, 1); a != 6 {
		t.Error("ApplyCSR wrong")
	}
}

func TestReduceRows(t *testing.T) {
	a, _ := sparse.CSRFromTriplets(3, 4,
		[]int{0, 0, 2}, []int{1, 3, 0}, []int64{5, 7, 2})
	r := ReduceRows(a, semiring.PlusMonoid[int64]())
	if r.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 (row 1 is empty)", r.NNZ())
	}
	if v, _ := r.Get(0); v != 12 {
		t.Errorf("row 0 sum = %d, want 12", v)
	}
	if v, _ := r.Get(2); v != 2 {
		t.Errorf("row 2 sum = %d, want 2", v)
	}
	if _, ok := r.Get(1); ok {
		t.Error("empty row should be absent")
	}
}

func TestExtract(t *testing.T) {
	v, _ := sparse.VecOf(10, []int{2, 5, 8}, []int64{20, 50, 80})
	out, err := Extract(v, []int{5, 0, 8, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 4 || out.NNZ() != 2 {
		t.Fatalf("extract shape wrong: %v", out)
	}
	if x, _ := out.Get(0); x != 50 {
		t.Error("out[0] should be v[5] = 50")
	}
	if x, _ := out.Get(2); x != 80 {
		t.Error("out[2] should be v[8] = 80")
	}
	if _, err := Extract(v, []int{100}); err == nil {
		t.Error("out-of-range extract index accepted")
	}
}

func TestEWiseMultSS(t *testing.T) {
	x, _ := sparse.VecOf(10, []int{1, 3, 5, 7}, []int64{1, 3, 5, 7})
	y, _ := sparse.VecOf(10, []int{3, 5, 9}, []int64{30, 50, 90})
	z, err := EWiseMultSS(x, y, semiring.Times[int64])
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != 2 {
		t.Fatalf("intersection size %d, want 2", z.NNZ())
	}
	if v, _ := z.Get(3); v != 90 {
		t.Errorf("z[3] = %d, want 90", v)
	}
	if v, _ := z.Get(5); v != 250 {
		t.Errorf("z[5] = %d, want 250", v)
	}
	if _, err := EWiseMultSS(x, sparse.NewVec[int64](5), semiring.Times[int64]); err == nil {
		t.Error("capacity mismatch accepted")
	}
}

func TestEWiseAddSS(t *testing.T) {
	x, _ := sparse.VecOf(10, []int{1, 3}, []int64{1, 3})
	y, _ := sparse.VecOf(10, []int{3, 9}, []int64{30, 90})
	z, err := EWiseAddSS(x, y, semiring.Plus[int64])
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != 3 {
		t.Fatalf("union size %d, want 3", z.NNZ())
	}
	if v, _ := z.Get(1); v != 1 {
		t.Error("x-only entry wrong")
	}
	if v, _ := z.Get(3); v != 33 {
		t.Error("shared entry wrong")
	}
	if v, _ := z.Get(9); v != 90 {
		t.Error("y-only entry wrong")
	}
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEWiseAddMultQuick(t *testing.T) {
	// Property: patterns of add = union, mult = intersection; values correct
	// against dense arithmetic.
	f := func(xs, ys []uint8) bool {
		n := 64
		dx := make([]int64, n)
		dy := make([]int64, n)
		for i, v := range xs {
			dx[i%n] = int64(v % 4)
		}
		for i, v := range ys {
			dy[i%n] = int64(v % 4)
		}
		x := denseToVec(dx)
		y := denseToVec(dy)
		add, err := EWiseAddSS(x, y, semiring.Plus[int64])
		if err != nil {
			return false
		}
		mul, err := EWiseMultSS(x, y, semiring.Times[int64])
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			av, _ := add.Get(i)
			if av != dx[i]+dy[i] {
				return false
			}
			mv, _ := mul.Get(i)
			var want int64
			if dx[i] != 0 && dy[i] != 0 {
				want = dx[i] * dy[i]
			}
			if mv != want {
				return false
			}
		}
		return add.Validate() == nil && mul.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMV(t *testing.T) {
	// Ring graph with min-plus: x at vertex 0 propagates distance to vertex 1.
	a := sparse.Ring[int64](5)
	sr := semiring.MinPlus[int64]()
	x := make([]int64, 5)
	inf := sr.AddIdentity()
	for i := range x {
		x[i] = inf
	}
	x[0] = 0
	y, err := SpMV(a, x, sr)
	if err != nil {
		t.Fatal(err)
	}
	if y[1] != 1 {
		t.Errorf("y[1] = %d, want 1 (0 + weight 1)", y[1])
	}
	for i := 2; i < 5; i++ {
		if y[i] != inf {
			t.Errorf("y[%d] = %d, want +inf", i, y[i])
		}
	}
	if _, err := SpMV(a, x[:3], sr); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSpMSpVMasked(t *testing.T) {
	a := sparse.ErdosRenyi[int64](200, 6, 17)
	x := sparse.RandomVec[int64](200, 20, 18)
	unmasked, _ := SpMSpVShm(a, x, ShmConfig{})
	mask := sparse.NewDense[int64](200)
	// Mask out the first half of the reached columns.
	for k, j := range unmasked.Ind {
		if k < unmasked.NNZ()/2 {
			mask.Data[j] = 1
		}
	}
	masked, st := SpMSpVMasked(a, x, mask, ShmConfig{})
	want := unmasked.NNZ() - unmasked.NNZ()/2
	if masked.NNZ() != want {
		t.Fatalf("masked nnz = %d, want %d", masked.NNZ(), want)
	}
	if st.NnzOut != masked.NNZ() {
		t.Error("stats not updated for mask")
	}
	for _, j := range masked.Ind {
		if mask.Data[j] != 0 {
			t.Fatalf("masked-out column %d survived", j)
		}
	}
	// Nil mask passes everything through.
	nilMasked, _ := SpMSpVMasked(a, x, nil, ShmConfig{})
	if !nilMasked.Equal(unmasked) {
		t.Error("nil mask should be a no-op")
	}
}

func TestSpGEMMMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := sparse.ErdosRenyi[int64](60, 4, seed)
		b := sparse.ErdosRenyi[int64](60, 4, seed+100)
		for _, sr := range []semiring.Semiring[int64]{
			semiring.PlusTimes[int64](),
			semiring.MinPlus[int64](),
		} {
			want := RefSpGEMM(a, b, sr)
			got := &sparse.CSR[int64]{}
			SpGEMMLocal(nil, a, b, sr, got)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed=%d %s: SpGEMM differs from reference", seed, sr.Name)
			}
		}
	}
}

func TestSpGEMMIdentity(t *testing.T) {
	// A * I = A over plus-times.
	a := sparse.ErdosRenyi[int64](40, 3, 9)
	eye := sparse.NewCSR[int64](40, 40)
	for i := 0; i < 40; i++ {
		eye.ColIdx = append(eye.ColIdx, i)
		eye.Val = append(eye.Val, 1)
		eye.RowPtr[i+1] = i + 1
	}
	c := &sparse.CSR[int64]{}
	SpGEMMLocal(nil, a, eye, semiring.PlusTimes[int64](), c)
	if !c.Equal(a) {
		t.Fatal("A*I != A")
	}
}

func TestSpGEMMMasked(t *testing.T) {
	a := sparse.ErdosRenyi[int64](50, 5, 23)
	b := sparse.ErdosRenyi[int64](50, 5, 24)
	m := sparse.ErdosRenyi[int64](50, 10, 25)
	sr := semiring.PlusTimes[int64]()
	full := RefSpGEMM(a, b, sr)
	masked := &sparse.CSR[int64]{}
	SpGEMMLocal(nil, a, b, sr, masked, m)
	if err := masked.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			mv, mok := masked.Get(i, j)
			fv, fok := full.Get(i, j)
			_, inMask := m.Get(i, j)
			wantOK := fok && inMask
			if mok != wantOK {
				t.Fatalf("(%d,%d): present=%v, want %v", i, j, mok, wantOK)
			}
			if mok && mv != fv {
				t.Fatalf("(%d,%d): %d, want %d", i, j, mv, fv)
			}
		}
	}
}

func TestSelectVec(t *testing.T) {
	x, _ := sparse.VecOf(10, []int{1, 3, 5, 7}, []int64{-1, 2, -3, 4})
	pos := SelectVec(x, func(_ int, v int64) bool { return v > 0 })
	if pos.NNZ() != 2 {
		t.Fatalf("positive entries = %d, want 2", pos.NNZ())
	}
	if _, ok := pos.Get(1); ok {
		t.Error("negative entry survived")
	}
	evens := SelectVec(x, func(i int, _ int64) bool { return i%2 == 0 })
	if evens.NNZ() != 0 {
		t.Error("no stored entry has an even index")
	}
	if err := pos.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectDist(t *testing.T) {
	x0 := sparse.RandomVec[int64](400, 80, 92)
	pred := func(_ int, v int64) bool { return v%2 == 0 }
	want := SelectVec(x0, pred)
	for _, p := range []int{1, 4, 9} {
		rt := newRT(t, p, 24)
		x := dist.SpVecFromVec(rt, x0)
		z := SelectDist(rt, x, pred)
		if err := z.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !z.ToVec().Equal(want) {
			t.Fatalf("p=%d: distributed select differs", p)
		}
	}
}

func TestReduceRowsDistMatchesLocal(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](97, 5, 94)
	want := ReduceRows(a0, semiring.PlusMonoid[int64]())
	for _, p := range []int{1, 2, 4, 6, 9} {
		rt := newRT(t, p, 24)
		a := dist.MatFromCSR(rt, a0)
		got := ReduceRowsDist(rt, a, semiring.PlusMonoid[int64]())
		if err := got.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !got.ToVec().Equal(want) {
			t.Fatalf("p=%d: distributed row reduce differs", p)
		}
	}
}

// ApplyCSR applies op in place to every stored value of a local matrix.
func ApplyCSR[T semiring.Number](a *sparse.CSR[T], op semiring.UnaryOp[T]) {
	for i := range a.Val {
		a.Val[i] = op(a.Val[i])
	}
}

// ReduceRows reduces each row of a to a scalar with a monoid, producing a
// sparse vector with one entry per nonempty row.
func ReduceRows[T semiring.Number](a *sparse.CSR[T], m semiring.Monoid[T]) *sparse.Vec[T] {
	out := sparse.NewVec[T](a.NRows)
	for i := 0; i < a.NRows; i++ {
		_, vals := a.Row(i)
		if len(vals) == 0 {
			continue
		}
		out.Ind = append(out.Ind, i)
		out.Val = append(out.Val, m.Reduce(vals))
	}
	return out
}

// Extract returns the subvector x(indices) as a sparse vector of capacity
// len(indices): output position k holds x[indices[k]] when stored.
func Extract[T semiring.Number](x *sparse.Vec[T], indices []int) (*sparse.Vec[T], error) {
	out := sparse.NewVec[T](len(indices))
	for k, i := range indices {
		if i < 0 || i >= x.N {
			return nil, fmt.Errorf("core: Extract: index %d out of range [0,%d)", i, x.N)
		}
		if v, ok := x.Get(i); ok {
			out.Ind = append(out.Ind, k)
			out.Val = append(out.Val, v)
		}
	}
	return out, nil
}

// SpMSpVMasked runs the shared-memory SpMSpV and then removes every output
// entry whose position is marked in the mask (complemented mask application,
// the form BFS uses to drop already-visited vertices).
func SpMSpVMasked[T semiring.Number](a *sparse.CSR[T], x *sparse.Vec[T], mask *sparse.Dense[int64], cfg ShmConfig) (*sparse.Vec[int64], ShmStats) {
	y, st := SpMSpVShm(a, x, cfg)
	if mask == nil {
		return y, st
	}
	out := sparse.GetVec[int64](cfg.Scratch, y.N)
	for k, i := range y.Ind {
		if mask.Data[i] == 0 {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, y.Val[k])
		}
	}
	// y was scratch of this call; recycle it for the next one.
	sparse.PutVec(cfg.Scratch, y)
	st.NnzOut = out.NNZ()
	return out, st
}

// denseToVec gathers the nonzero entries of d into a sparse vector of
// capacity len(d).
func denseToVec(d []int64) *sparse.Vec[int64] {
	v := sparse.NewVec[int64](len(d))
	for i, x := range d {
		if x != 0 {
			v.Ind = append(v.Ind, i)
			v.Val = append(v.Val, x)
		}
	}
	return v
}
