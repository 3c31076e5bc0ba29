package gb

import (
	"errors"
	"testing"
)

func TestContextBasics(t *testing.T) {
	ctx, err := New(Locales(4), Threads(24))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Locales() != 4 || ctx.Threads() != 24 {
		t.Fatal("context accessors wrong")
	}
	if ctx.Elapsed() != 0 {
		t.Fatal("fresh context has nonzero clock")
	}
	if _, err := New(Locales(0), Threads(1)); err == nil {
		t.Error("zero locales accepted")
	}
	one, err := New(Locales(8), Threads(1), OneNode())
	if err != nil {
		t.Fatal(err)
	}
	if one.Locales() != 8 {
		t.Fatal("one-node context wrong")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	ctx, _ := New(Locales(3), Threads(8))
	v, err := VectorFromSlices(ctx, 10, []int{7, 1, 4}, []int64{70, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 3 || v.Size() != 10 {
		t.Fatal("vector shape wrong")
	}
	if x, ok := v.Get(4); !ok || x != 40 {
		t.Fatal("Get wrong")
	}
	ind, val := v.Entries()
	if len(ind) != 3 || ind[0] != 1 || val[0] != 10 {
		t.Fatalf("Entries wrong: %v %v", ind, val)
	}
	if _, err := VectorFromSlices(ctx, 5, []int{9}, []int64{1}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestMatrixConstructors(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(8))
	m, err := MatrixFromTriplets(ctx, 3, 3,
		[]int{0, 1, 1}, []int{1, 2, 2}, []int64{5, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.NRows() != 3 || m.NCols() != 3 || m.NNZ() != 2 {
		t.Fatal("matrix shape wrong")
	}
	if v, ok := m.Get(1, 2); !ok || v != 7 {
		t.Fatalf("duplicates not summed: %d", v)
	}
	er := ErdosRenyi[int64](ctx, 500, 4, 1)
	if er.NNZ() == 0 {
		t.Fatal("ER matrix empty")
	}
}

func TestApplyAndReduce(t *testing.T) {
	ctx, _ := New(Locales(2), Threads(8))
	v, _ := VectorFromSlices(ctx, 6, []int{0, 3, 5}, []int64{1, 2, 3})
	Apply(v, func(x int64) int64 { return x * 10 })
	if got := Reduce(v, PlusMonoid[int64]()); got != 60 {
		t.Fatalf("reduce after apply = %d, want 60", got)
	}
	ApplyNaive(v, func(x int64) int64 { return x + 1 })
	if got := Reduce(v, MinMonoid[int64]()); got != 11 {
		t.Fatalf("min reduce = %d, want 11", got)
	}
	if ctx.Elapsed() <= 0 {
		t.Error("operations charged no modeled time")
	}
	ctx.ResetClock()
	if ctx.Elapsed() != 0 {
		t.Error("ResetClock failed")
	}
}

func TestAssignVariants(t *testing.T) {
	ctx, _ := New(Locales(3), Threads(8))
	src := RandomVector[int64](ctx, 300, 50, 2)
	dst := NewVector[int64](ctx, 300)
	if err := Assign(dst, src); err != nil {
		t.Fatal(err)
	}
	if dst.NNZ() != 50 {
		t.Fatal("Assign lost entries")
	}
	dst2 := NewVector[int64](ctx, 300)
	if err := AssignNaive(dst2, src); err != nil {
		t.Fatal(err)
	}
	if dst2.NNZ() != 50 {
		t.Fatal("AssignNaive lost entries")
	}
	other := NewVector[int64](ctx, 200)
	if err := Assign(other, src); err == nil {
		t.Error("mismatched capacity accepted")
	}
}

func TestEWiseMultFacade(t *testing.T) {
	ctx, _ := New(Locales(2), Threads(8))
	x, _ := VectorFromSlices(ctx, 6, []int{0, 2, 4}, []int64{1, 2, 3})
	y := NewDenseVector[int64](ctx, 6)
	y.Set(2, 1)
	z, err := EWiseMult(x, y, func(_, m int64) bool { return m != 0 })
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != 1 {
		t.Fatalf("kept %d, want 1", z.NNZ())
	}
	if v, ok := z.Get(2); !ok || v != 2 {
		t.Fatal("kept wrong entry")
	}
}

func TestSpMSpVFacade(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(24))
	a := ErdosRenyi[int64](ctx, 200, 5, 3)
	x := RandomVector[int64](ctx, 200, 20, 4)
	y, err := SpMSpV(a, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() == 0 {
		t.Fatal("SpMSpV reached nothing")
	}
	ys, err := SpMSpVSemiring(a, x, PlusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	if ys.NNZ() != y.NNZ() {
		t.Fatalf("semiring pattern %d != pattern %d", ys.NNZ(), y.NNZ())
	}
	bad := NewVector[int64](ctx, 100)
	if _, err := SpMSpV(a, bad); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if _, err := SpMSpVSemiring(a, bad, PlusTimes[int64]()); err == nil {
		t.Error("capacity mismatch accepted (semiring)")
	}
}

func TestBFSFacade(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(24))
	a := ErdosRenyi[int64](ctx, 300, 6, 5)
	res, err := BFS(ctx, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level[0] != 0 || res.Rounds == 0 {
		t.Fatal("BFS result implausible")
	}
	if ctx.Messages() == 0 {
		t.Error("distributed BFS recorded no traffic")
	}
}

func TestDenseVectorFromSlice(t *testing.T) {
	ctx, _ := New(Locales(3), Threads(8))
	d := DenseVectorFromSlice(ctx, []int64{5, 6, 7, 8})
	if d.Get(2) != 7 {
		t.Fatal("dense get wrong")
	}
	d.Set(0, 9)
	if d.Get(0) != 9 {
		t.Fatal("dense set wrong")
	}
}

func TestFacadeSpMVAndTranspose(t *testing.T) {
	ctx, _ := New(Locales(6), Threads(24))
	a := ErdosRenyi[int64](ctx, 100, 4, 7)
	x := NewDenseVector[int64](ctx, 100)
	x.Set(3, 1)
	y, err := SpMV(a, x, PlusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	// y must equal row 3 of A.
	for j := 0; j < 100; j++ {
		want, ok := a.Get(3, j)
		if !ok {
			want = 0
		}
		if y.Get(j) != want {
			t.Fatalf("y[%d] = %d, want %d", j, y.Get(j), want)
		}
	}
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := a.Get(3, 7); ok {
		tv, tok := at.Get(7, 3)
		if !tok || tv != v {
			t.Fatal("transpose entry mismatch")
		}
	}
	if at.NNZ() != a.NNZ() {
		t.Fatal("transpose changed nnz")
	}
}

func TestFacadeEWiseAddMult(t *testing.T) {
	ctx, _ := New(Locales(3), Threads(8))
	x, _ := VectorFromSlices(ctx, 10, []int{1, 3}, []int64{1, 3})
	y, _ := VectorFromSlices(ctx, 10, []int{3, 5}, []int64{30, 50})
	sum, err := EWiseAdd(x, y, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if sum.NNZ() != 3 {
		t.Fatalf("union nnz = %d", sum.NNZ())
	}
	if v, _ := sum.Get(3); v != 33 {
		t.Fatal("merged value wrong")
	}
	prod, err := EWiseMultSparse(x, y, func(a, b int64) int64 { return a * b })
	if err != nil {
		t.Fatal(err)
	}
	if prod.NNZ() != 1 {
		t.Fatalf("intersection nnz = %d", prod.NNZ())
	}
}

func TestFacadeAlgorithmsExtra(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(24))
	a := ErdosRenyi[int64](ctx, 200, 5, 8)
	res, err := BFSDirectionOptimizing(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BFS(ctx, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Level {
		if res.Level[v] != base.Level[v] {
			t.Fatalf("DOBFS and BFS disagree at %d", v)
		}
	}
	bc, err := BetweennessCentrality(a, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bc) != 200 {
		t.Fatal("bc length wrong")
	}
	sssp, rounds, err := SSSP(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 || sssp[0] != 0 {
		t.Fatal("SSSP implausible")
	}
	ApplyMatrix(a, func(v int64) int64 { return 1 })
	if v, ok := a.Get(0, 0); ok && v != 1 {
		t.Fatal("ApplyMatrix did not rewrite values")
	}
}

func TestFacadeIndexedAssignExtractSelect(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(8))
	v, _ := VectorFromSlices(ctx, 20, []int{2, 5, 9}, []int64{20, 50, 90})
	src, _ := VectorFromSlices(ctx, 2, []int{0}, []int64{-7})
	// v(5) = -7; v(9) cleared (absent from src).
	if err := AssignIndexed(v, []int{5, 9}, src); err != nil {
		t.Fatal(err)
	}
	if x, _ := v.Get(5); x != -7 {
		t.Fatal("indexed assign value wrong")
	}
	if _, ok := v.Get(9); ok {
		t.Fatal("indexed assign should clear absent positions")
	}
	ext, err := Extract(v, []int{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Size() != 3 || ext.NNZ() != 2 {
		t.Fatalf("extract shape wrong: %d/%d", ext.Size(), ext.NNZ())
	}
	sel := Select(v, func(_ int, x int64) bool { return x > 0 })
	if sel.NNZ() != 1 {
		t.Fatalf("select kept %d, want 1", sel.NNZ())
	}
}

func TestFacadeReduceRowsAndMxM(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(8)) // 2x2: square grid for SUMMA
	a, _ := MatrixFromTriplets(ctx, 3, 3,
		[]int{0, 0, 2}, []int{0, 1, 2}, []int64{2, 3, 4})
	sums := ReduceRows(a, PlusMonoid[int64]())
	if x, _ := sums.Get(0); x != 5 {
		t.Fatal("row 0 sum wrong")
	}
	if _, ok := sums.Get(1); ok {
		t.Fatal("empty row should be absent")
	}
	eye, _ := MatrixFromTriplets(ctx, 3, 3,
		[]int{0, 1, 2}, []int{0, 1, 2}, []int64{1, 1, 1})
	c, err := MxM(a, eye, PlusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != a.NNZ() {
		t.Fatal("A*I changed nnz")
	}
	if x, _ := c.Get(0, 1); x != 3 {
		t.Fatal("A*I value wrong")
	}
}

func TestFacadePageRankCCTriangles(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(8))
	// Undirected triangle plus isolated vertex.
	rows := []int{0, 1, 1, 2, 0, 2}
	cols := []int{1, 0, 2, 1, 2, 0}
	vals := []int64{1, 1, 1, 1, 1, 1}
	a, err := MatrixFromTriplets(ctx, 4, 4, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	ranks, iters, err := PageRank(a, 0.85, 1e-9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 || len(ranks) != 4 {
		t.Fatal("pagerank implausible")
	}
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ranks sum to %v", sum)
	}
	labels, comps, err := ConnectedComponents(a)
	if err != nil {
		t.Fatal(err)
	}
	if comps != 2 || labels[3] != 3 {
		t.Fatalf("components = %d, labels[3] = %d", comps, labels[3])
	}
	tris, err := TriangleCount(a)
	if err != nil {
		t.Fatal(err)
	}
	if tris != 1 {
		t.Fatalf("triangles = %d, want 1", tris)
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	ctx, _ := New(Locales(2), Threads(4))
	if _, err := MatrixFromTriplets(ctx, 2, 2, []int{5}, []int{0}, []int64{1}); err == nil {
		t.Error("bad triplet accepted")
	}
	if _, err := New(Locales(0), Threads(1), OneNode()); err == nil {
		t.Error("zero locales accepted")
	}
	v := NewVector[int64](ctx, 10)
	if err := AssignIndexed(v, []int{1, 1}, NewVector[int64](ctx, 2)); err == nil {
		t.Error("duplicate indices accepted")
	}
	if _, err := Extract(v, []int{99}); err == nil {
		t.Error("bad extract index accepted")
	}
	// MxM on a non-square grid works (band-sweep SUMMA); only a dimension
	// mismatch is an error.
	ctx2, _ := New(Locales(2), Threads(4)) // 1x2 grid
	a := ErdosRenyi[int64](ctx2, 10, 2, 1)
	if c, err := MxM(a, a, PlusTimes[int64]()); err != nil || c.NRows() != 10 {
		t.Errorf("SUMMA on 1x2 grid: %v", err)
	}
	b := ErdosRenyi[int64](ctx2, 12, 2, 1)
	if _, err := MxM(a, b, PlusTimes[int64]()); err == nil {
		t.Error("MxM dimension mismatch accepted")
	}
	// The single-source graph calls reject an out-of-range source and a
	// non-square matrix with the same typed errors.
	rect, err := MatrixFromTriplets(ctx2, 10, 12, []int{0}, []int{11}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	sourced := map[string]func(m *Matrix[int64], source int) error{
		"BFS": func(m *Matrix[int64], source int) error {
			_, err := BFS(ctx2, m, source)
			return err
		},
		"BFSDirectionOptimizing": func(m *Matrix[int64], source int) error {
			_, err := BFSDirectionOptimizing(m, source, 0)
			return err
		},
		"SSSP": func(m *Matrix[int64], source int) error {
			_, _, err := SSSP(m, source)
			return err
		},
		"MultiSourceBFS": func(m *Matrix[int64], source int) error {
			_, _, err := MultiSourceBFS(m, []int{0, source})
			return err
		},
	}
	for name, run := range sourced {
		for _, source := range []int{-1, 10, 99} {
			if err := run(a, source); !errors.Is(err, ErrIndexOutOfRange) {
				t.Errorf("%s from source %d: %v, want ErrIndexOutOfRange", name, source, err)
			}
		}
		if err := run(rect, 0); !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("%s on a 10x12 matrix: %v, want ErrDimensionMismatch", name, err)
		}
	}
	if _, err := BetweennessCentrality(a, []int{-3}); err == nil {
		t.Error("bad BC source accepted")
	}
}

func TestFacadeBFSMasked(t *testing.T) {
	ctx, _ := New(Locales(4), Threads(24))
	a := ErdosRenyi[int64](ctx, 300, 6, 5)
	plain, err := BFS(ctx, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := BFSMasked(ctx, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Level {
		if plain.Level[v] != masked.Level[v] {
			t.Fatalf("masked BFS level differs at %d", v)
		}
	}
}
