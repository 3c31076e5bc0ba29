package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

func TestReduceDist(t *testing.T) {
	x0 := sparse.RandomVec[int64](1000, 150, 51)
	var wantSum int64
	wantMax := semiring.MinValue[int64]()
	for _, v := range x0.Val {
		wantSum += v
		if v > wantMax {
			wantMax = v
		}
	}
	for _, p := range []int{1, 4, 9} {
		rt := newRT(t, p, 24)
		x := dist.SpVecFromVec(rt, x0)
		if got, err := ReduceDist(rt, x, semiring.PlusMonoid[int64]()); err != nil || got != wantSum {
			t.Fatalf("p=%d: sum = %d (%v), want %d", p, got, err, wantSum)
		}
		if got, err := ReduceDist(rt, x, semiring.MaxMonoid[int64]()); err != nil || got != wantMax {
			t.Fatalf("p=%d: max = %d (%v), want %d", p, got, err, wantMax)
		}
	}
	// Empty vector reduces to the identity.
	rt := newRT(t, 4, 8)
	empty := dist.NewSpVec[int64](rt, 100)
	if got, err := ReduceDist(rt, empty, semiring.PlusMonoid[int64]()); err != nil || got != 0 {
		t.Fatalf("empty sum = %d (%v)", got, err)
	}
}

func TestSpMVDistMatchesReference(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](143, 6, 52)
	for _, sr := range []semiring.Semiring[int64]{
		semiring.PlusTimes[int64](),
		semiring.MinPlus[int64](),
	} {
		x0 := make([]int64, 143)
		id := sr.AddIdentity()
		for i := range x0 {
			x0[i] = id
		}
		// A few source values.
		x0[0], x0[50], x0[142] = 1, 2, 3
		want := RefSpMV(a0, x0, sr)
		for _, p := range []int{1, 2, 4, 6, 9, 16} {
			rt := newRT(t, p, 24)
			a := dist.MatFromCSR(rt, a0)
			x := dist.DenseVecFromDense(rt, &sparse.Dense[int64]{Data: x0})
			y, err := SpMVDist(rt, a, x, sr)
			if err != nil {
				t.Fatal(err)
			}
			got := y.ToDense()
			for i := range want {
				if got.Data[i] != want[i] {
					t.Fatalf("%s p=%d: y[%d] = %d, want %d", sr.Name, p, i, got.Data[i], want[i])
				}
			}
		}
	}
}

// gridInvariantShapes are the grids the min and max SpMV rounds must not
// see: square, one-member column teams (1×4, and 1×5, the shape NewGrid gives
// a prime locale count), one-member row teams (4×1) and non-square 2×3.
var gridInvariantShapes = [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {1, 4}, {4, 1}, {2, 3}, {1, 5}}

// checkSpMVGridInvariant builds a random rows×cols matrix and x whose
// entries are special values (NaN, ±0, ±Inf, ±MaxFloat64, the identity) with
// probability specialPct percent and small integers otherwise, and checks
// that min-plus, min-first and max-plus SpMVDist equal the sequential SpMV
// bit for bit on every grid of gridInvariantShapes.
func checkSpMVGridInvariant(t *testing.T, seed int64, rows, cols, specialPct uint8) {
	t.Helper()
	nr, nc := 1+int(rows)%40, 1+int(cols)%40
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64}
	draw := func(id float64) float64 {
		if rng.Intn(100) < int(specialPct)%101 {
			if k := rng.Intn(len(specials) + 1); k < len(specials) {
				return specials[k]
			}
			return id
		}
		return float64(rng.Intn(7) - 3)
	}
	var ri, ci []int
	var vals []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Intn(3) == 0 {
				ri, ci, vals = append(ri, i), append(ci, j), append(vals, draw(0))
			}
		}
	}
	a0, err := sparse.CSRFromTriplets(nr, nc, ri, ci, vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range []semiring.Semiring[float64]{
		semiring.MinPlus[float64](), semiring.MinFirst[float64](), semiring.MaxPlus[float64](),
	} {
		x0 := make([]float64, nr)
		for i := range x0 {
			x0[i] = draw(sr.AddIdentity())
		}
		want, err := SpMV(a0, x0, sr)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range gridInvariantShapes {
			g, err := locale.NewGridShape(sh[0], sh[1])
			if err != nil {
				t.Fatal(err)
			}
			rt := locale.NewWithGrid(machine.Edison(), g, 4)
			a := dist.MatFromCSR(rt, a0)
			x := dist.DenseVecFromDense(rt, &sparse.Dense[float64]{Data: x0})
			y, err := SpMVDist(rt, a, x, sr)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range y.ToDense().Data {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d %dx%d %s on %dx%d: y[%d] = %v, sequential %v",
						seed, nr, nc, sr.Name, sh[0], sh[1], j, v, want[j])
				}
			}
		}
	}
}

// TestSpMVDistGridInvariant: a min or max SpMV round reduces each grid
// column in global row order, so its output is the sequential SpMV's, bit
// for bit, whatever the grid — NaN, ±0 and ±Inf included, which a fold of
// per-block partials resolves differently.
func TestSpMVDistGridInvariant(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkSpMVGridInvariant(t, seed, uint8(seed*7), uint8(seed*11), uint8(seed*17))
	}
}

// FuzzSpMVDistGridInvariant is TestSpMVDistGridInvariant over fuzzed seeds,
// shapes and special-value shares.
func FuzzSpMVDistGridInvariant(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(40))
	f.Add(int64(2), uint8(39), uint8(39), uint8(100))
	f.Add(int64(3), uint8(0), uint8(30), uint8(0))
	f.Fuzz(checkSpMVGridInvariant)
}

func TestSpMVDistDimensionCheck(t *testing.T) {
	rt := newRT(t, 4, 8)
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](50, 3, 1))
	x := dist.NewDenseVec[int64](rt, 40)
	if _, err := SpMVDist(rt, a, x, semiring.PlusTimes[int64]()); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestFusedSpMVUpdateRuns holds FusedSpMVUpdate to its run contract: the
// runs cover [0, n) exactly once, locale-major and ascending, each inside
// its locale's block of the result, with the values SpMVDist returns; and no
// arena loan is left when the call returns.
func TestFusedSpMVUpdateRuns(t *testing.T) {
	const n = 143 // divisible by none of the grids' locale counts but 1
	a0 := sparse.ErdosRenyi[int64](n, 6, 58)
	x0 := sparse.NewDense[int64](n)
	for i := range x0.Data {
		x0.Data[i] = int64(i%5) - 1
	}
	sr := semiring.PlusTimes[int64]()
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 4}, {4, 1}, {3, 3}} {
		g, err := locale.NewGridShape(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		rt := locale.NewWithGrid(machine.Edison(), g, 24)
		a, x := dist.MatFromCSR(rt, a0), dist.DenseVecFromDense(rt, x0)
		want, err := SpMVDist(rt, a, x, sr)
		if err != nil {
			t.Fatal(err)
		}
		type run struct{ l, lo, hi int }
		var runs []run
		got := make([]int64, n)
		err = FusedSpMVUpdate(rt, a, x, sr, func(l, lo int, vals []int64) {
			runs = append(runs, run{l, lo, lo + len(vals)})
			copy(got[lo:], vals)
		})
		if err != nil {
			t.Fatal(err)
		}
		bounds := locale.BlockBounds(n, g.P)
		next, lastL := 0, 0
		for _, r := range runs {
			if r.l < lastL || r.lo != next || r.hi <= r.lo || r.lo < bounds[r.l] || r.hi > bounds[r.l+1] {
				t.Fatalf("%dx%d: run (l=%d, [%d,%d)) after locale %d, index %d; locale %d owns [%d,%d)",
					shape[0], shape[1], r.l, r.lo, r.hi, lastL, next, r.l, bounds[r.l], bounds[r.l+1])
			}
			next, lastL = r.hi, r.l
		}
		if next != n {
			t.Fatalf("%dx%d: runs end at %d, want %d", shape[0], shape[1], next, n)
		}
		for i, v := range want.ToDense().Data {
			if got[i] != v {
				t.Fatalf("%dx%d: [%d] = %d in the runs, %d from SpMVDist", shape[0], shape[1], i, got[i], v)
			}
		}
		if out := rt.Scratch.Outstanding(); out != 0 {
			t.Errorf("%dx%d: %d arena loans outstanding", shape[0], shape[1], out)
		}
	}
}

func TestEWiseAddDistMatchesLocal(t *testing.T) {
	x0 := sparse.RandomVec[int64](500, 80, 53)
	y0 := sparse.RandomVec[int64](500, 80, 54)
	want, err := EWiseAddSS(x0, y0, semiring.Plus[int64])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 8} {
		rt := newRT(t, p, 24)
		x := dist.SpVecFromVec(rt, x0)
		y := dist.SpVecFromVec(rt, y0)
		z, err := EWiseAddDist(rt, x, y, semiring.Plus[int64])
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !z.ToVec().Equal(want) {
			t.Fatalf("p=%d: distributed add differs", p)
		}
	}
}

func TestEWiseMultDistSSMatchesLocal(t *testing.T) {
	x0 := sparse.RandomVec[int64](500, 120, 55)
	y0 := sparse.RandomVec[int64](500, 120, 56)
	want, err := EWiseMultSS(x0, y0, semiring.Times[int64])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		rt := newRT(t, p, 24)
		x := dist.SpVecFromVec(rt, x0)
		y := dist.SpVecFromVec(rt, y0)
		z, err := EWiseMultDistSS(rt, x, y, semiring.Times[int64])
		if err != nil {
			t.Fatal(err)
		}
		if !z.ToVec().Equal(want) {
			t.Fatalf("p=%d: distributed intersect differs", p)
		}
	}
	// Distribution mismatch rejected.
	rt := newRT(t, 4, 8)
	x := dist.NewSpVec[int64](rt, 100)
	y := dist.NewSpVec[int64](rt, 200)
	if _, err := EWiseAddDist(rt, x, y, semiring.Plus[int64]); err == nil {
		t.Error("EWiseAddDist accepted mismatched distributions")
	}
	if _, err := EWiseMultDistSS(rt, x, y, semiring.Times[int64]); err == nil {
		t.Error("EWiseMultDistSS accepted mismatched distributions")
	}
}

func TestTransposeDist(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](77, 5, 57)
	want := a0.Transpose()
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}, {1, 4}} {
		g, err := locale.NewGridShape(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		rt := locale.NewWithGrid(machine.Edison(), g, 24)
		a := dist.MatFromCSR(rt, a0)
		at, trt, err := TransposeDist(rt, a)
		if err != nil {
			t.Fatal(err)
		}
		if trt.G.Pr != shape[1] || trt.G.Pc != shape[0] {
			t.Fatalf("shape %v: transposed grid is %dx%d", shape, trt.G.Pr, trt.G.Pc)
		}
		if err := at.Validate(); err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		got, err := at.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("shape %v: transpose differs", shape)
		}
	}
}

func TestTransposeDistInvolution(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](50, 4, 58)
	rt := newRT(t, 6, 8) // 2x3 grid
	a := dist.MatFromCSR(rt, a0)
	at, trt, err := TransposeDist(rt, a)
	if err != nil {
		t.Fatal(err)
	}
	att, _, err := TransposeDist(trt, at)
	if err != nil {
		t.Fatal(err)
	}
	back, err := att.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a0) {
		t.Fatal("double transpose differs from original")
	}
}

func TestSpGEMMDistMatchesLocal(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](81, 4, 81)
	b0 := sparse.ErdosRenyi[int64](81, 4, 82)
	sr := semiring.PlusTimes[int64]()
	want := RefSpGEMM(a0, b0, sr)
	for _, p := range []int{1, 4, 9, 16} { // square grids
		rt := newRT(t, p, 24)
		a := dist.MatFromCSR(rt, a0)
		b := dist.MatFromCSR(rt, b0)
		c, err := SpGEMMDist(rt, a, b, sr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got, err := c.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("p=%d: distributed SpGEMM differs", p)
		}
	}
}

func TestSpGEMMDistMinPlus(t *testing.T) {
	// Min-plus SpGEMM: two-hop shortest distances.
	a0 := sparse.ErdosRenyi[int64](50, 3, 83)
	sr := semiring.MinPlus[int64]()
	want := RefSpGEMM(a0, a0, sr)
	rt := newRT(t, 4, 24)
	a := dist.MatFromCSR(rt, a0)
	c, err := SpGEMMDist(rt, a, a, sr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("min-plus distributed SpGEMM differs")
	}
}

func TestSpGEMMDistRejectsBadInputs(t *testing.T) {
	// Non-square grids used to be rejected ("SUMMA needs a square grid");
	// the band sweep now handles them, so a 1x2 grid must just work.
	rt := newRT(t, 2, 8)
	a0 := sparse.ErdosRenyi[int64](20, 3, 1)
	a := dist.MatFromCSR(rt, a0)
	c, err := SpGEMMDist(rt, a, a, semiring.PlusTimes[int64]())
	if err != nil {
		t.Fatalf("1x2 grid: %v", err)
	}
	got, err := c.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(RefSpGEMM(a0, a0, semiring.PlusTimes[int64]())) {
		t.Error("1x2-grid SUMMA differs from reference")
	}
	rt4 := newRT(t, 4, 8)
	a4 := dist.MatFromCSR(rt4, sparse.ErdosRenyi[int64](20, 3, 1))
	b4 := dist.MatFromCSR(rt4, sparse.ErdosRenyi[int64](30, 3, 1))
	if _, err := SpGEMMDist(rt4, a4, b4, semiring.PlusTimes[int64]()); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
