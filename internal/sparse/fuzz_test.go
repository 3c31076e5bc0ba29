package sparse

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the two parsers: any input must either parse into a
// structure that passes Validate, or return an error — never panic and never
// yield a corrupt structure.

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n3 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 5 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999999999\n1 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		a, err := ReadMatrixMarket[float64](strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("parser returned corrupt matrix: %v\ninput: %q", verr, input)
		}
	})
}

func FuzzReadBinaryCSR(f *testing.F) {
	a := ErdosRenyi[int64](10, 2, 1)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:8])
	f.Fuzz(func(t *testing.T, input []byte) {
		m, err := ReadBinaryCSR[int64](bytes.NewReader(input))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("binary reader returned corrupt matrix: %v", verr)
		}
	})
}

func FuzzReadBinaryVec(f *testing.F) {
	v := RandomVec[float64](30, 6, 1)
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("GBLB garbage"))
	f.Fuzz(func(t *testing.T, input []byte) {
		w, err := ReadBinaryVec[float64](bytes.NewReader(input))
		if err != nil {
			return
		}
		if verr := w.Validate(); verr != nil {
			t.Fatalf("binary reader returned corrupt vector: %v", verr)
		}
	})
}

// FuzzBucketSPA drives the sort-free bucket accumulator with random
// (n, nnz, workers, buckets) shapes and a seeded entry stream: the output
// must always be sorted, duplicate-free, and bitwise identical to the
// sequential SPA + merge-sort reference (the merge-sort engine's resolution
// of the same stream). The stream's claim bitmap, harvested at a non-zero
// base, must match the naive scan.
func FuzzBucketSPA(f *testing.F) {
	f.Add(uint16(100), uint16(500), uint8(1), uint8(1), int64(1))
	f.Add(uint16(1000), uint16(200), uint8(4), uint8(16), int64(2))
	f.Add(uint16(7), uint16(900), uint8(9), uint8(200), int64(3))
	f.Add(uint16(1), uint16(1), uint8(0), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, n16, nnz16 uint16, workers8, buckets8 uint8, seed int64) {
		n := int(n16)%5000 + 1
		nnz := int(nnz16) % 5000
		workers := int(workers8)%16 + 1
		buckets := int(buckets8) + 1
		r := rand.New(rand.NewSource(seed))
		inds := make([]int, nnz)
		vals := make([]int64, nnz)
		for k := range inds {
			inds[k] = r.Intn(n)
			vals[k] = r.Int63n(1 << 20)
		}
		wantInd, wantVal := bucketReference(n, inds, vals, true)

		flags := make([]bool, n)
		for _, i := range inds {
			flags[i] = true
		}
		checkHarvest(t, flags, int(uint64(seed)%1000)+1)

		s := NewBucketSPA[int64](n, workers, buckets)
		appendChunked(s, inds, vals)
		ind, val, st := s.Merge(nil, workers)

		if len(ind) != len(wantInd) {
			t.Fatalf("nnz %d, want %d (n=%d w=%d b=%d)", len(ind), len(wantInd), n, workers, buckets)
		}
		for k := range ind {
			if k > 0 && ind[k] <= ind[k-1] {
				t.Fatalf("indices not strictly sorted at %d: %v", k, ind[k-1:k+1])
			}
			if ind[k] != wantInd[k] || val[k] != wantVal[k] {
				t.Fatalf("entry %d = (%d,%d), want (%d,%d) (n=%d w=%d b=%d)",
					k, ind[k], val[k], wantInd[k], wantVal[k], n, workers, buckets)
			}
		}
		if st.Entries != int64(nnz) || st.Claimed != len(ind) || st.Scanned != int64(n) {
			t.Fatalf("stats %+v inconsistent (nnz=%d out=%d n=%d)", st, nnz, len(ind), n)
		}
		// The single-writer dense path must resolve the stream identically.
		dInd, dVal, dSt := emitDenseFirstWins(s, inds, vals)
		if dSt != st || !slices.Equal(dInd, ind) || !slices.Equal(dVal, val) {
			t.Fatalf("dense path %+v differs from the bucket merge %+v (n=%d w=%d b=%d)", dSt, st, n, workers, buckets)
		}
	})
}

// FuzzSortInts checks RadixSortInts, RadixSortInts32 and MergeSortInts
// (one to four workers) against slices.Sort on seeded inputs whose lengths
// straddle the radix sorts' insertion cutoff and the merge sort's leaf size,
// and whose maxima range from 0 to 2^40 (the int32 sort gets the inputs that
// fit). Both radix sorts must report one pass per byte of the maximum,
// whichever of their two sorts ran.
func FuzzSortInts(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), int64(1))
	f.Add(uint16(radixInsertionCutoff), uint8(17), uint8(1), int64(2))
	f.Add(uint16(radixInsertionCutoff+1), uint8(17), uint8(2), int64(3))
	f.Add(uint16(3000), uint8(41), uint8(3), int64(4))
	f.Add(uint16(5), uint8(1), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, n16 uint16, maxBits8, workers8 uint8, seed int64) {
		n := int(n16) % 5000
		hi := (int64(1) << (maxBits8 % 42)) >> 1 // 0, 1, 2, 4, ..., 2^40
		workers := int(workers8)%4 + 1
		r := rand.New(rand.NewSource(seed))
		base := make([]int, n)
		for k := range base {
			base[k] = int(r.Int63n(hi + 1))
		}
		want := slices.Clone(base)
		slices.Sort(want)
		wantPasses := 0
		if n >= 2 {
			for m := want[n-1]; m > 0; m >>= 8 {
				wantPasses++
			}
		}

		xs := slices.Clone(base)
		if p := RadixSortInts(xs); p != wantPasses || !slices.Equal(xs, want) {
			t.Fatalf("RadixSortInts(n=%d, hi=%d): %d passes (want %d), sorted=%v", n, hi, p, wantPasses, slices.Equal(xs, want))
		}
		if hi <= 1<<31-1 {
			xs32 := make([]int32, n)
			for k, x := range base {
				xs32[k] = int32(x)
			}
			p := RadixSortInts32(xs32)
			for k := range xs32 {
				if int(xs32[k]) != want[k] {
					t.Fatalf("RadixSortInts32(n=%d, hi=%d): entry %d = %d, want %d", n, hi, k, xs32[k], want[k])
				}
			}
			if p != wantPasses {
				t.Fatalf("RadixSortInts32(n=%d, hi=%d): %d passes, want %d", n, hi, p, wantPasses)
			}
		}
		xs = slices.Clone(base)
		MergeSortInts(xs, workers)
		if !slices.Equal(xs, want) {
			t.Fatalf("MergeSortInts(n=%d, workers=%d) not sorted", n, workers)
		}
	})
}
