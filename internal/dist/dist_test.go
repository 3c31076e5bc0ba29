package dist

import (
	"slices"
	"testing"

	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

func newRT(t *testing.T, p int) *locale.Runtime {
	t.Helper()
	rt, err := locale.New(machine.Edison(), p, 24)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestMatFromCSRRoundTrip(t *testing.T) {
	a := sparse.ErdosRenyi[int64](97, 6, 3) // odd size: uneven bands
	for _, p := range []int{1, 2, 4, 6, 9, 16} {
		rt := newRT(t, p)
		m := MatFromCSR(rt, a)
		if err := m.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if m.NNZ() != a.NNZ() {
			t.Fatalf("p=%d: nnz %d != %d", p, m.NNZ(), a.NNZ())
		}
		back, err := m.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(back) {
			t.Fatalf("p=%d: round trip differs", p)
		}
	}
}

func TestMatGet(t *testing.T) {
	a := sparse.ErdosRenyi[int32](50, 4, 9)
	rt := newRT(t, 4)
	m := MatFromCSR(rt, a)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			wv, wok := a.Get(i, j)
			gv, gok := m.Get(i, j)
			if wok != gok || wv != gv {
				t.Fatalf("Get(%d,%d) = %d,%v; want %d,%v", i, j, gv, gok, wv, wok)
			}
		}
	}
}

func TestMatValidateDetectsCorruption(t *testing.T) {
	a := sparse.ErdosRenyi[int](30, 3, 1)
	rt := newRT(t, 4)
	m := MatFromCSR(rt, a)
	m.Blocks = m.Blocks[:3]
	if err := m.Validate(); err == nil {
		t.Error("missing block not detected")
	}
	m2 := MatFromCSR(rt, a)
	m2.Blocks[0] = sparse.NewCSR[int](1, 1)
	if err := m2.Validate(); err == nil {
		t.Error("wrong block shape not detected")
	}
}

func TestSpVecDistributeGather(t *testing.T) {
	x := sparse.RandomVec[float64](1000, 80, 5)
	for _, p := range []int{1, 3, 4, 8} {
		rt := newRT(t, p)
		v := SpVecFromVec(rt, x)
		if err := v.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if v.NNZ() != x.NNZ() {
			t.Fatalf("p=%d: nnz %d != %d", p, v.NNZ(), x.NNZ())
		}
		if !v.ToVec().Equal(x) {
			t.Fatalf("p=%d: gather differs", p)
		}
	}
}

func TestSpVecGetAndOwner(t *testing.T) {
	x := sparse.RandomVec[int64](200, 40, 8)
	rt := newRT(t, 6)
	v := SpVecFromVec(rt, x)
	for i := 0; i < 200; i++ {
		wv, wok := x.Get(i)
		gv, gok := v.Get(i)
		if wok != gok || wv != gv {
			t.Fatalf("Get(%d) mismatch", i)
		}
		o := v.Owner(i)
		if i < v.Bounds[o] || i >= v.Bounds[o+1] {
			t.Fatalf("Owner(%d) = %d outside its bounds", i, o)
		}
	}
}

func TestSpVecEqualAndDistribution(t *testing.T) {
	x := sparse.RandomVec[int](100, 20, 2)
	rt := newRT(t, 4)
	v := SpVecFromVec(rt, x)
	w := SpVecFromVec(rt, x)
	if !v.Equal(w) {
		t.Fatal("identical vectors unequal")
	}
	if !v.SameDistribution(w) {
		t.Fatal("identical distributions not recognized")
	}
	w.Loc[0].Val[0]++
	if v.Equal(w) {
		t.Fatal("value change not detected")
	}
	rt2 := newRT(t, 2)
	u := SpVecFromVec(rt2, x)
	if v.SameDistribution(u) {
		t.Fatal("different grids reported same distribution")
	}
}

func TestSpVecValidateDetectsMisplacedIndex(t *testing.T) {
	x := sparse.RandomVec[int](100, 10, 4)
	rt := newRT(t, 4)
	v := SpVecFromVec(rt, x)
	// Move an index to the wrong locale.
	v.Loc[0].Ind = append(v.Loc[0].Ind, 99)
	v.Loc[0].Val = append(v.Loc[0].Val, 1)
	if err := v.Validate(); err == nil {
		t.Error("misplaced index not detected")
	}
}

func TestNewSpVecEmpty(t *testing.T) {
	rt := newRT(t, 4)
	v := NewSpVec[int](rt, 57)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 0 || v.N != 57 {
		t.Fatal("empty vector wrong")
	}
	if v.Bounds[4] != 57 {
		t.Fatal("bounds wrong")
	}
}

func TestDenseVec(t *testing.T) {
	d0 := sparse.NewDense[float64](101)
	for i := range d0.Data {
		d0.Data[i] = float64(i) * 1.5
	}
	for _, p := range []int{1, 2, 5, 8} {
		rt := newRT(t, p)
		d := DenseVecFromDense(rt, d0)
		for i := 0; i < 101; i++ {
			if d.Get(i) != d0.Data[i] {
				t.Fatalf("p=%d: Get(%d) wrong", p, i)
			}
		}
		d.Set(50, -1)
		if d.Get(50) != -1 {
			t.Fatalf("p=%d: Set/Get wrong", p)
		}
		d.Set(50, 75)
		if !d.ToDense().Equal(d0) {
			t.Fatalf("p=%d: gather differs", p)
		}
		// The view has the same distribution and contents, and is d0 itself.
		v := DenseVecOver(rt, d0.Data)
		if !v.ToDense().Equal(d0) || len(v.Loc) != len(d.Loc) {
			t.Fatalf("p=%d: view differs from the copy", p)
		}
		for l := range v.Loc {
			if len(v.Loc[l]) != len(d.Loc[l]) || cap(v.Loc[l]) != len(v.Loc[l]) {
				t.Fatalf("p=%d: view part %d has len %d cap %d, copy has len %d", p, l, len(v.Loc[l]), cap(v.Loc[l]), len(d.Loc[l]))
			}
		}
		v.Set(50, -2)
		if d0.Data[50] != -2 {
			t.Fatalf("p=%d: a write through the view did not reach the data", p)
		}
		d0.Data[50] = 75
	}
}

// TestSpVecFromVecSplit: the bounds split puts every element where the
// per-element OwnerOf assignment does, on grids with empty pieces (n < P),
// on an empty vector and on one held by a single locale; and no piece
// aliases the input, which BFS's checkpoint restore relies on when it
// rebuilds a frontier from its saved copy.
func TestSpVecFromVecSplit(t *testing.T) {
	cases := []struct {
		name string
		x    *sparse.Vec[float64]
	}{
		{"random", sparse.RandomVec[float64](1000, 80, 5)},
		{"n<P", sparse.RandomVec[float64](5, 3, 6)},
		{"full-n<P", sparse.RandomVec[float64](2, 2, 7)},
		{"empty", sparse.NewVec[float64](100)},
		{"capacity-0", sparse.NewVec[float64](0)},
		{"one-locale", func() *sparse.Vec[float64] {
			// 48..51 lie in one block of 64 on every grid below.
			x, err := sparse.VecOf(64, []int{48, 49, 51}, []float64{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			return x
		}()},
		{"ends", func() *sparse.Vec[float64] {
			x, err := sparse.VecOf(97, []int{0, 96}, []float64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			return x
		}()},
	}
	for _, c := range cases {
		for _, p := range []int{1, 3, 4, 7, 16} {
			x := &sparse.Vec[float64]{N: c.x.N, Ind: slices.Clone(c.x.Ind), Val: slices.Clone(c.x.Val)}
			v := SpVecFromVec(newRT(t, p), x)
			want := make([]*sparse.Vec[float64], p)
			for l := range want {
				want[l] = sparse.NewVec[float64](x.N)
			}
			for k, i := range x.Ind {
				l := locale.OwnerOf(x.N, p, i)
				want[l].Ind = append(want[l].Ind, i)
				want[l].Val = append(want[l].Val, x.Val[k])
			}
			if err := v.Validate(); err != nil {
				t.Fatalf("%s p=%d: %v", c.name, p, err)
			}
			for l := range want {
				if !v.Loc[l].Equal(want[l]) {
					t.Fatalf("%s p=%d: locale %d holds %v, want %v", c.name, p, l, v.Loc[l].Ind, want[l].Ind)
				}
			}
			for k := range x.Ind {
				x.Ind[k], x.Val[k] = -1, -1
			}
			for l := range want {
				if !v.Loc[l].Equal(want[l]) {
					t.Fatalf("%s p=%d: locale %d changed when the input was overwritten", c.name, p, l)
				}
			}
		}
	}
}
