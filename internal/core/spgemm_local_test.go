package core

import (
	"testing"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// denseRefSpGEMM multiplies through dense accumulation over (+,×) — the
// third, structurally unrelated reference the fuzzer compares against.
func denseRefSpGEMM(a, b *sparse.CSR[int64]) *sparse.CSR[int64] {
	acc := make([]int64, b.NCols)
	hit := make([]bool, b.NCols)
	out := sparse.NewCSR[int64](a.NRows, b.NCols)
	for i := 0; i < a.NRows; i++ {
		aCols, aVals := a.Row(i)
		for t, k := range aCols {
			bCols, bVals := b.Row(k)
			for u, j := range bCols {
				acc[j] += aVals[t] * bVals[u]
				hit[j] = true
			}
		}
		for j := 0; j < b.NCols; j++ {
			if hit[j] {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, acc[j])
				acc[j], hit[j] = 0, false
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// maskOf restricts c to the positions stored in mask: the reference the masked
// kernels are compared with (Buluç & Gilbert's SpGEMM-then-SpRef identity).
func maskOf[T semiring.Number](c, mask *sparse.CSR[T]) *sparse.CSR[T] {
	out := sparse.NewCSR[T](c.NRows, c.NCols)
	for i := 0; i < c.NRows; i++ {
		cols, vals := c.Row(i)
		for k, j := range cols {
			if _, ok := mask.Get(i, j); ok {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

func TestSpGEMMLocalKernelsAgree(t *testing.T) {
	scratch := sparse.NewScratchPool()
	for _, tc := range []struct {
		name string
		a, b *sparse.CSR[int64]
	}{
		{"square", sparse.ErdosRenyi[int64](60, 5, 21), sparse.ErdosRenyi[int64](60, 5, 22)},
		{"rect", sparse.ErdosRenyi[int64](40, 3, 23).SubMatrix(0, 40, 0, 25), sparse.ErdosRenyi[int64](25, 4, 24)},
		{"hypersparse", sparse.ErdosRenyi[int64](200, 0.3, 25), sparse.ErdosRenyi[int64](200, 0.3, 26)},
		{"empty", sparse.NewCSR[int64](10, 10), sparse.NewCSR[int64](10, 10)},
	} {
		sr := semiring.PlusTimes[int64]()
		want := denseRefSpGEMM(tc.a, tc.b)
		var hash, heap sparse.CSR[int64]
		SpGEMMLocalHash(scratch, tc.a, tc.b, sr, &hash, nil)
		SpGEMMLocalHeap(scratch, tc.a, tc.b, sr, &heap, nil)
		if !hash.Equal(want) {
			t.Errorf("%s: hash kernel differs from dense reference", tc.name)
		}
		if !heap.Equal(want) {
			t.Errorf("%s: heap kernel differs from dense reference", tc.name)
		}
		if ref := RefSpGEMM(tc.a, tc.b, sr); !hash.Equal(ref) {
			t.Errorf("%s: hash kernel differs from RefSpGEMM", tc.name)
		}
	}
}

func TestSpGEMMLocalMinPlus(t *testing.T) {
	scratch := sparse.NewScratchPool()
	a := sparse.ErdosRenyi[int64](50, 4, 27)
	sr := semiring.MinPlus[int64]()
	want := RefSpGEMM(a, a, sr)
	var hash, heap sparse.CSR[int64]
	SpGEMMLocalHash(scratch, a, a, sr, &hash, nil)
	SpGEMMLocalHeap(scratch, a, a, sr, &heap, nil)
	if !hash.Equal(want) || !heap.Equal(want) {
		t.Error("min-plus local kernels differ from reference")
	}
}

// FuzzSpGEMMLocal cross-checks the heap and hash kernels against the dense
// reference on fuzzed matrices; over int64 (+,×) all three must agree
// bitwise, hypersparse DCSC path included. Each kernel under a fuzzed mask
// (empty, with empty rows, reaching outside the product's pattern) must equal
// its unmasked product restricted to the mask, with no more multiply-adds.
func FuzzSpGEMMLocal(f *testing.F) {
	f.Add(uint16(20), uint16(15), uint16(25), uint32(40), uint32(30), int64(5))
	f.Add(uint16(150), uint16(4), uint16(150), uint32(9), uint32(9), int64(6)) // hypersparse
	f.Add(uint16(1), uint16(1), uint16(1), uint32(1), uint32(1), int64(7))
	f.Add(uint16(30), uint16(30), uint16(30), uint32(200), uint32(200), int64(0)) // empty mask
	f.Fuzz(func(t *testing.T, m16, k16, n16 uint16, nnzA32, nnzB32 uint32, seed int64) {
		m := int(m16%160) + 1
		kk := int(k16%160) + 1
		n := int(n16%160) + 1
		build := func(nr, nc, nnz int, s int64) *sparse.CSR[int64] {
			rows := make([]int, nnz)
			cols := make([]int, nnz)
			vals := make([]int64, nnz)
			for i := 0; i < nnz; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				rows[i] = int(uint64(s)>>33) % nr
				s = s*6364136223846793005 + 1442695040888963407
				cols[i] = int(uint64(s)>>33) % nc
				vals[i] = (s >> 55) | 1
			}
			a, err := sparse.CSRFromTriplets(nr, nc, rows, cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		a := build(m, kk, int(nnzA32%500), seed)
		b := build(kk, n, int(nnzB32%500), seed^0x7f4a7c15ee6546cd)
		want := denseRefSpGEMM(a, b)
		scratch := sparse.NewScratchPool()
		sr := semiring.PlusTimes[int64]()
		var hash, heap sparse.CSR[int64]
		hashFlops := SpGEMMLocalHash(scratch, a, b, sr, &hash, nil)
		heapFlops := SpGEMMLocalHeap(scratch, a, b, sr, &heap, nil)
		if !hash.Equal(want) {
			t.Fatal("hash kernel differs from dense reference")
		}
		if !heap.Equal(want) {
			t.Fatal("heap kernel differs from dense reference")
		}
		if err := hash.Validate(); err != nil {
			t.Fatal(err)
		}

		mask := build(m, n, int(uint64(seed)>>7%600), seed^0x2545f4914f6cdd1d)
		wantMasked := maskOf(want, mask)
		var hashM, heapM sparse.CSR[int64]
		hashMFlops := SpGEMMLocalHash(scratch, a, b, sr, &hashM, mask)
		heapMFlops := SpGEMMLocalHeap(scratch, a, b, sr, &heapM, mask)
		if !hashM.Equal(wantMasked) {
			t.Fatal("masked hash kernel differs from the masked reference")
		}
		if !heapM.Equal(wantMasked) {
			t.Fatal("masked heap kernel differs from the masked reference")
		}
		if err := heapM.Validate(); err != nil {
			t.Fatal(err)
		}
		if hashMFlops > hashFlops || heapMFlops > heapFlops {
			t.Fatalf("masked kernels report more multiply-adds (%d, %d) than unmasked (%d, %d)",
				hashMFlops, heapMFlops, hashFlops, heapFlops)
		}
		if scratch.Outstanding() != 0 {
			t.Fatalf("%d arena loans outstanding", scratch.Outstanding())
		}
	})
}
