package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
)

func TestCSCConversionRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := ErdosRenyi[int64](120, 6, seed)
		c := a.ToCSC()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.NNZ() != a.NNZ() {
			t.Fatal("conversion changed nnz")
		}
		back := c.ToCSR()
		if !a.Equal(back) {
			t.Fatal("CSR->CSC->CSR round trip differs")
		}
	}
}

func TestCSCGetMatchesCSR(t *testing.T) {
	a := ErdosRenyi[int32](60, 4, 5)
	c := a.ToCSC()
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			rv, rok := a.Get(i, j)
			cv, cok := c.Get(i, j)
			if rok != cok || rv != cv {
				t.Fatalf("(%d,%d): CSR %d,%v vs CSC %d,%v", i, j, rv, rok, cv, cok)
			}
		}
	}
}

func TestCSCColAccess(t *testing.T) {
	a, _ := CSRFromTriplets(3, 4,
		[]int{0, 1, 2, 0}, []int{1, 1, 1, 3}, []int64{10, 20, 30, 40})
	c := a.ToCSC()
	rows, vals := c.Col(1)
	if len(rows) != 3 || rows[0] != 0 || rows[1] != 1 || rows[2] != 2 {
		t.Fatalf("Col(1) rows = %v", rows)
	}
	if vals[0] != 10 || vals[2] != 30 {
		t.Fatalf("Col(1) vals = %v", vals)
	}
	if c.ColPtr[1]-c.ColPtr[0] != 0 || c.ColPtr[4]-c.ColPtr[3] != 1 {
		t.Fatal("column counts wrong")
	}
}

func TestCSCValidateDetectsCorruption(t *testing.T) {
	a := ErdosRenyi[int](30, 3, 7).ToCSC()
	a.ColPtr[0] = 1
	if err := a.Validate(); err == nil {
		t.Error("bad ColPtr[0] not detected")
	}
	b := ErdosRenyi[int](30, 3, 7).ToCSC()
	if b.NNZ() > 0 {
		b.RowIdx[0] = 99
		if err := b.Validate(); err == nil {
			t.Error("row out of range not detected")
		}
	}
}

func TestIdentity(t *testing.T) {
	eye := Identity[int64](5)
	if err := eye.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if v, ok := eye.Get(i, i); !ok || v != 1 {
			t.Fatal("identity diagonal wrong")
		}
	}
}

func TestPermuteRows(t *testing.T) {
	a, _ := CSRFromTriplets(3, 3,
		[]int{0, 1, 2}, []int{0, 1, 2}, []int64{10, 20, 30})
	p, err := a.PermuteRows([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Get(0, 2); v != 30 {
		t.Error("row 0 should be old row 2")
	}
	if v, _ := p.Get(1, 0); v != 10 {
		t.Error("row 1 should be old row 0")
	}
	if _, err := a.PermuteRows([]int{0, 0, 1}); err == nil {
		t.Error("duplicate perm entry accepted")
	}
	if _, err := a.PermuteRows([]int{0, 1}); err == nil {
		t.Error("short perm accepted")
	}
	if _, err := a.PermuteRows([]int{0, 1, 5}); err == nil {
		t.Error("out-of-range perm accepted")
	}
}

func TestBinaryMatrixRoundTrip(t *testing.T) {
	a := ErdosRenyi[float64](90, 5, 8)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryCSR[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(back) {
		t.Fatal("binary matrix round trip differs")
	}
}

func TestBinaryVectorRoundTrip(t *testing.T) {
	v := RandomVec[int64](1000, 120, 9)
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readBinaryVec[int64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(back) {
		t.Fatal("binary vector round trip differs")
	}
}

func TestBinaryFloatValuesExact(t *testing.T) {
	v, _ := VecOf(4, []int{0, 1, 2}, []float64{3.14159265358979, -0.0, 1e-300})
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readBinaryVec[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := range v.Val {
		if back.Val[k] != v.Val[k] {
			t.Fatalf("value %d: %v != %v", k, back.Val[k], v.Val[k])
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	// Truncated stream.
	a := ErdosRenyi[int64](20, 3, 10)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadBinaryCSR[int64](bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("truncated matrix accepted")
	}
	// Wrong magic.
	if _, err := ReadBinaryCSR[int64](bytes.NewReader([]byte("not a matrix at all....."))); err == nil {
		t.Error("bad magic accepted")
	}
	// Matrix/vector kind confusion.
	if _, err := readBinaryVec[int64](bytes.NewReader(full)); err == nil {
		t.Error("matrix parsed as vector")
	}
	var vbuf bytes.Buffer
	v := RandomVec[int64](50, 5, 11)
	if err := v.WriteBinary(&vbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryCSR[int64](bytes.NewReader(vbuf.Bytes())); err == nil {
		t.Error("vector parsed as matrix")
	}
}

func TestCSCQuickAgainstDense(t *testing.T) {
	f := func(raw []uint16) bool {
		n := 12
		coo := NewCOO[int64](n, n)
		for k, r := range raw {
			if k >= 40 {
				break
			}
			coo.Append(int(r)%n, int(r>>4)%n, int64(r%7))
		}
		a, err := coo.ToCSR(func(x, y int64) int64 { return x + y })
		if err != nil {
			return false
		}
		c := a.ToCSC()
		if c.Validate() != nil {
			return false
		}
		return c.ToCSR().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryCrossTypeRead(t *testing.T) {
	// A float-valued file read as int64 converts numerically (not by bit
	// reinterpretation), and vice versa.
	a, _ := CSRFromTriplets(2, 2, []int{0, 1}, []int{1, 0}, []float64{3.0, -2.0})
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	asInt, err := ReadBinaryCSR[int64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := asInt.Get(0, 1); v != 3 {
		t.Fatalf("cross-type value = %d, want 3", v)
	}
	if v, _ := asInt.Get(1, 0); v != -2 {
		t.Fatalf("cross-type value = %d, want -2", v)
	}
	b, _ := CSRFromTriplets(2, 2, []int{0}, []int{0}, []int64{7})
	buf.Reset()
	if err := b.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	asFloat, err := ReadBinaryCSR[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := asFloat.Get(0, 0); v != 7.0 {
		t.Fatalf("cross-type value = %v, want 7", v)
	}
}

// readBinaryVec reads a vector written by Vec.WriteBinary and validates it.
func readBinaryVec[T semiring.Number](r io.Reader) (*Vec[T], error) {
	br := &binReader{r: bufio.NewReader(r)}
	if m := br.u64(); m != binMagic {
		return nil, fmt.Errorf("sparse: binio: bad magic %#x", m)
	}
	if ver := br.u64(); ver != binVersion {
		return nil, fmt.Errorf("sparse: binio: unsupported version %d", ver)
	}
	if k := br.u64(); k != kindVector {
		return nil, fmt.Errorf("sparse: binio: expected vector, found kind %d", k)
	}
	vk := br.u64()
	if vk != valInt && vk != valFloat {
		return nil, fmt.Errorf("sparse: binio: unknown value kind %d", vk)
	}
	n := int(br.u64())
	nnz := int(br.u64())
	if br.err != nil {
		return nil, br.err
	}
	if n < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: binio: negative dimensions")
	}
	v := &Vec[T]{N: n}
	v.Ind = br.ints(nnz)
	v.Val = readVals[T](br, nnz, vk)
	if br.err != nil {
		return nil, br.err
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: binio: corrupt vector: %w", err)
	}
	return v, nil
}

// Identity returns the n×n identity matrix in CSR form.
func Identity[T semiring.Number](n int) *CSR[T] {
	a := NewCSR[T](n, n)
	a.ColIdx = make([]int, n)
	a.Val = make([]T, n)
	for i := 0; i < n; i++ {
		a.ColIdx[i] = i
		a.Val[i] = 1
		a.RowPtr[i+1] = i + 1
	}
	return a
}

// PermuteRows returns the matrix whose row i is a's row perm[i]. perm must be
// a permutation of [0, NRows).
func (a *CSR[T]) PermuteRows(perm []int) (*CSR[T], error) {
	if len(perm) != a.NRows {
		return nil, fmt.Errorf("sparse: PermuteRows: perm has %d entries for %d rows", len(perm), a.NRows)
	}
	seen := make([]bool, a.NRows)
	for _, p := range perm {
		if p < 0 || p >= a.NRows || seen[p] {
			return nil, fmt.Errorf("sparse: PermuteRows: not a permutation")
		}
		seen[p] = true
	}
	out := NewCSR[T](a.NRows, a.NCols)
	out.ColIdx = make([]int, 0, a.NNZ())
	out.Val = make([]T, 0, a.NNZ())
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(perm[i])
		out.ColIdx = append(out.ColIdx, cols...)
		out.Val = append(out.Val, vals...)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out, nil
}
