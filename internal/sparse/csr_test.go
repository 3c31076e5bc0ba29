package sparse

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semiring"
)

// smallCSR builds the 4x5 matrix
//
//	[ 1 . 2 . . ]
//	[ . . . 3 . ]
//	[ . . . . . ]
//	[ 4 . . . 5 ]
func smallCSR(t *testing.T) *CSR[int] {
	t.Helper()
	a, err := CSRFromTriplets(4, 5,
		[]int{0, 0, 1, 3, 3},
		[]int{0, 2, 3, 0, 4},
		[]int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCSRBasics(t *testing.T) {
	a := smallCSR(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", a.NNZ())
	}
	if a.RowNNZ(0) != 2 || a.RowNNZ(1) != 1 || a.RowNNZ(2) != 0 || a.RowNNZ(3) != 2 {
		t.Fatal("RowNNZ wrong")
	}
	if v, ok := a.Get(0, 2); !ok || v != 2 {
		t.Errorf("Get(0,2) = %d,%v", v, ok)
	}
	if v, ok := a.Get(3, 4); !ok || v != 5 {
		t.Errorf("Get(3,4) = %d,%v", v, ok)
	}
	if _, ok := a.Get(2, 2); ok {
		t.Error("Get(2,2) should be absent")
	}
	if _, ok := a.Get(0, 1); ok {
		t.Error("Get(0,1) should be absent")
	}
	cols, vals := a.Row(3)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 4 || vals[0] != 4 || vals[1] != 5 {
		t.Errorf("Row(3) = %v %v", cols, vals)
	}
}

func TestCSRCloneEqual(t *testing.T) {
	a := smallCSR(t)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Val[0] = 99
	if a.Equal(b) {
		t.Fatal("value change not detected")
	}
	if a.Val[0] == 99 {
		t.Fatal("clone aliases original")
	}
	c := smallCSR(t)
	c.NCols = 6
	if a.Equal(c) {
		t.Fatal("dimension change not detected")
	}
}

func TestCSRTranspose(t *testing.T) {
	a := smallCSR(t)
	at := a.Transpose()
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	if at.NRows != a.NCols || at.NCols != a.NRows || at.NNZ() != a.NNZ() {
		t.Fatal("transpose dims/nnz wrong")
	}
	for i := 0; i < a.NRows; i++ {
		for j := 0; j < a.NCols; j++ {
			va, oka := a.Get(i, j)
			vt, okt := at.Get(j, i)
			if oka != okt || va != vt {
				t.Fatalf("A[%d,%d]=%d,%v but At[%d,%d]=%d,%v", i, j, va, oka, j, i, vt, okt)
			}
		}
	}
	// Double transpose is identity.
	if !a.Equal(at.Transpose()) {
		t.Fatal("transpose of transpose differs")
	}
}

func TestCSRTransposeRandom(t *testing.T) {
	a := ErdosRenyi[int64](200, 8, 7)
	at := a.Transpose()
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	att := at.Transpose()
	if !a.Equal(att) {
		t.Fatal("random matrix: transpose of transpose differs")
	}
}

func TestCSRSubMatrix(t *testing.T) {
	a := smallCSR(t)
	s := a.SubMatrix(0, 2, 0, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NRows != 2 || s.NCols != 3 {
		t.Fatal("submatrix dims wrong")
	}
	if v, ok := s.Get(0, 0); !ok || v != 1 {
		t.Error("s[0,0] wrong")
	}
	if v, ok := s.Get(0, 2); !ok || v != 2 {
		t.Error("s[0,2] wrong")
	}
	if _, ok := s.Get(1, 0); ok {
		t.Error("s[1,0] should be absent")
	}
	// Full-range submatrix equals the original.
	if !a.Equal(a.SubMatrix(0, a.NRows, 0, a.NCols)) {
		t.Error("identity submatrix differs")
	}
}

func TestCSRSubMatrixTiling(t *testing.T) {
	// Cutting a random matrix into a 3x3 tile grid must partition the nnz.
	a := ErdosRenyi[int32](100, 5, 3)
	rb := []int{0, 33, 66, 100}
	cb := []int{0, 40, 80, 100}
	total := 0
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 3; bj++ {
			s := a.SubMatrix(rb[bi], rb[bi+1], cb[bj], cb[bj+1])
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			total += s.NNZ()
			// Every entry must match the original.
			for i := 0; i < s.NRows; i++ {
				cols, vals := s.Row(i)
				for k, j := range cols {
					v, ok := a.Get(rb[bi]+i, cb[bj]+j)
					if !ok || v != vals[k] {
						t.Fatalf("tile (%d,%d) entry (%d,%d) mismatch", bi, bj, i, j)
					}
				}
			}
		}
	}
	if total != a.NNZ() {
		t.Fatalf("tiles hold %d nnz, matrix has %d", total, a.NNZ())
	}
}

func TestCSRValidateDetectsCorruption(t *testing.T) {
	check := func(name string, corrupt func(*CSR[int])) {
		a := smallCSR(t)
		corrupt(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s not detected", name)
		}
	}
	check("rowptr length", func(a *CSR[int]) { a.RowPtr = a.RowPtr[:3] })
	check("val length", func(a *CSR[int]) { a.Val = a.Val[:2] })
	check("rowptr[0]", func(a *CSR[int]) { a.RowPtr[0] = 1 })
	check("rowptr[n]", func(a *CSR[int]) { a.RowPtr[4] = 3 })
	check("nonmonotone rowptr", func(a *CSR[int]) { a.RowPtr[1] = 5; a.RowPtr[2] = 3 })
	check("column out of range", func(a *CSR[int]) { a.ColIdx[0] = 9 })
	check("columns out of order", func(a *CSR[int]) { a.ColIdx[0], a.ColIdx[1] = a.ColIdx[1], a.ColIdx[0] })
}

func TestCOODuplicateCombining(t *testing.T) {
	c := NewCOO[int](3, 3)
	c.Append(1, 1, 10)
	c.Append(0, 2, 1)
	c.Append(1, 1, 5)
	c.Append(1, 1, 2)
	a, err := c.ToCSR(semiring.Plus[int])
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", a.NNZ())
	}
	if v, _ := a.Get(1, 1); v != 17 {
		t.Errorf("summed duplicate = %d, want 17", v)
	}
	// The sort is stable, so duplicates reach dup in insertion order: Second
	// keeps the last inserted, First the first.
	c2 := NewCOO[int](2, 2)
	c2.Append(0, 0, 9)
	c2.Append(1, 1, 7)
	c2.Append(0, 0, 4)
	c2.Append(0, 0, 6)
	b, err := c2.ToCSR(semiring.Second[int])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Get(0, 0); v != 6 {
		t.Errorf("Second kept %d, want the last inserted, 6", v)
	}
	if b, err = c2.ToCSR(func(a, _ int) int { return a }); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Get(0, 0); v != 9 {
		t.Errorf("First kept %d, want the first inserted, 9", v)
	}
}

// TestCOOToCSRAgainstMapModel is the property test of the counting-sort
// conversion: random triplets with many duplicates, over square, wide and tall
// shapes with empty rows and columns, against a map that folds each
// coordinate's values in insertion order — under Plus, under Second (the last
// inserted wins) and under an operator that is neither commutative nor
// associative, so any other order shows. The builder is left untouched.
func TestCOOToCSRAgainstMapModel(t *testing.T) {
	ordered := func(a, b int64) int64 { return 31*a + b }
	dups := map[string]semiring.BinaryOp[int64]{
		"plus": semiring.Plus[int64], "second": semiring.Second[int64], "ordered": ordered,
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		nr, nc := 1+rng.Intn(40), 1+rng.Intn(40)
		if trial%3 == 1 {
			nc *= 9 // wide
		} else if trial%3 == 2 {
			nr *= 9 // tall: most rows stay empty
		}
		c := NewCOO[int64](nr, nc)
		for k := rng.Intn(400); k > 0; k-- {
			// A small coordinate pool, so most triplets are duplicates.
			c.Append(rng.Intn(7)*nr/7, rng.Intn(5)*nc/5, rng.Int63n(1000)-500)
		}
		rows, cols, vals := slices.Clone(c.Rows), slices.Clone(c.Cols), slices.Clone(c.Vals)
		for name, dup := range dups {
			model := map[[2]int]int64{}
			for k := range c.Rows {
				ij := [2]int{c.Rows[k], c.Cols[k]}
				if old, ok := model[ij]; ok {
					model[ij] = dup(old, c.Vals[k])
				} else {
					model[ij] = c.Vals[k]
				}
			}
			a, err := c.ToCSR(dup)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("trial %d/%s: %v", trial, name, err)
			}
			if a.NRows != nr || a.NCols != nc || a.NNZ() != len(model) {
				t.Fatalf("trial %d/%s: %dx%d with %d entries, want %dx%d with %d", trial, name, a.NRows, a.NCols, a.NNZ(), nr, nc, len(model))
			}
			for ij, want := range model {
				if got, ok := a.Get(ij[0], ij[1]); !ok || got != want {
					t.Fatalf("trial %d/%s: A[%d,%d] = %d,%v; want %d", trial, name, ij[0], ij[1], got, ok, want)
				}
			}
		}
		if !slices.Equal(rows, c.Rows) || !slices.Equal(cols, c.Cols) || !slices.Equal(vals, c.Vals) {
			t.Fatalf("trial %d: ToCSR rewrote the builder", trial)
		}
	}
}

func TestCOOBoundsChecked(t *testing.T) {
	c := NewCOO[int](2, 2)
	c.Append(2, 0, 1)
	if _, err := c.ToCSR(semiring.Plus[int]); err == nil {
		t.Error("row out of range not detected")
	}
	c2 := NewCOO[int](2, 2)
	c2.Append(0, -1, 1)
	if _, err := c2.ToCSR(semiring.Plus[int]); err == nil {
		t.Error("col out of range not detected")
	}
}

func TestCSRFromTripletsRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	var rows, cols []int
	var vals []int64
	ref := map[[2]int]int64{}
	for k := 0; k < 300; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		v := rng.Int63n(100)
		rows = append(rows, i)
		cols = append(cols, j)
		vals = append(vals, v)
		ref[[2]int{i, j}] += v
	}
	a, err := CSRFromTriplets(n, n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != len(ref) {
		t.Fatalf("nnz = %d, want %d", a.NNZ(), len(ref))
	}
	for ij, want := range ref {
		got, ok := a.Get(ij[0], ij[1])
		if !ok || got != want {
			t.Fatalf("A[%d,%d] = %d,%v; want %d", ij[0], ij[1], got, ok, want)
		}
	}
}

func TestCSRString(t *testing.T) {
	if smallCSR(t).String() == "" {
		t.Error("empty String()")
	}
	if ErdosRenyi[int](100, 5, 1).String() == "" {
		t.Error("empty String() for big matrix")
	}
}

// bruteCut extracts rows [r0, r1) × columns [c0, c1) of a one Get at a time.
func bruteCut(a *CSR[int32], r0, r1, c0, c1 int) *CSR[int32] {
	s := NewCSR[int32](r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if v, ok := a.Get(i, j); ok {
				s.ColIdx = append(s.ColIdx, j-c0)
				s.Val = append(s.Val, v)
			}
		}
		s.RowPtr[i-r0+1] = len(s.ColIdx)
	}
	return s
}

// randomRange draws lo <= hi in [0, n], empty ranges included.
func randomRange(rng *rand.Rand, n int) (int, int) {
	lo, hi := rng.Intn(n+1), rng.Intn(n+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// TestCSRPanelCutsMatchBruteForce is the property behind the SUMMA stage
// panels: on random matrices with empty rows, and random ranges with empty
// ones among them, the exact-size SubMatrix, the column cut into a reused
// (dirty, differently sized) buffer and the row-range view all equal an
// element-by-element extraction — and none of them disturbs the source.
func TestCSRPanelCutsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var cut CSR[int32] // reused across every iteration, like a stage buffer
	for iter := 0; iter < 300; iter++ {
		nr, nc := 1+rng.Intn(40), 1+rng.Intn(40)
		coo := NewCOO[int32](nr, nc)
		for k := rng.Intn(3 * nr); k > 0; k-- {
			if i := rng.Intn(nr); i%3 != 0 { // every third row stays empty
				coo.Append(i, rng.Intn(nc), int32(1+rng.Intn(9)))
			}
		}
		a, err := coo.ToCSR(semiring.Second[int32])
		if err != nil {
			t.Fatal(err)
		}
		before := a.Clone()
		r0, r1 := randomRange(rng, nr)
		c0, c1 := randomRange(rng, nc)

		sub := a.SubMatrix(r0, r1, c0, c1)
		if err := sub.Validate(); err != nil {
			t.Fatalf("iter %d: SubMatrix: %v", iter, err)
		}
		if !sub.Equal(bruteCut(a, r0, r1, c0, c1)) {
			t.Fatalf("iter %d: SubMatrix(%d,%d,%d,%d) differs from brute force", iter, r0, r1, c0, c1)
		}
		if cap(sub.ColIdx) != sub.NNZ() || cap(sub.Val) != sub.NNZ() {
			t.Fatalf("iter %d: SubMatrix holds %d entries in capacity %d/%d, want an exact fit",
				iter, sub.NNZ(), cap(sub.ColIdx), cap(sub.Val))
		}

		a.ColRangeInto(c0, c1, &cut)
		if err := cut.Validate(); err != nil {
			t.Fatalf("iter %d: ColRangeInto: %v", iter, err)
		}
		if !cut.Equal(bruteCut(a, 0, nr, c0, c1)) {
			t.Fatalf("iter %d: ColRangeInto(%d,%d) differs from brute force", iter, c0, c1)
		}

		view := CSR[int32]{RowPtr: make([]int, r1-r0+1)}
		a.RowRangeView(r0, r1, &view)
		if err := view.Validate(); err != nil {
			t.Fatalf("iter %d: RowRangeView: %v", iter, err)
		}
		if !view.Equal(bruteCut(a, r0, r1, 0, nc)) {
			t.Fatalf("iter %d: RowRangeView(%d,%d) differs from brute force", iter, r0, r1)
		}
		if view.NNZ() > 0 && &view.ColIdx[0] != &a.ColIdx[a.RowPtr[r0]] {
			t.Fatalf("iter %d: RowRangeView copied the index array instead of aliasing it", iter)
		}
		if !a.Equal(before) {
			t.Fatalf("iter %d: a cut wrote through to its source", iter)
		}
	}
}
