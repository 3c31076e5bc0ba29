package sparse

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"
)

// hashInts64 feeds each value to h as 8 little-endian bytes.
func hashInts64(h io.Writer, xs []int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashFloats(h io.Writer, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// csrHash is the FNV-64a hash of (RowPtr, ColIdx, Val bits).
func csrHash(a *CSR[float64]) uint64 {
	h := fnv.New64a()
	hashInts64(h, a.RowPtr)
	hashInts64(h, a.ColIdx)
	hashFloats(h, a.Val)
	return h.Sum64()
}

// vecHash is the FNV-64a hash of (Ind, Val bits).
func vecHash(v *Vec[float64]) uint64 {
	h := fnv.New64a()
	hashInts64(h, v.Ind)
	hashFloats(h, v.Val)
	return h.Sum64()
}

// TestGeneratorsBitwise pins every generated value: the hashes were recorded
// from the generators as first written, so a rewrite that keeps the draws
// and their order passes unchanged, and anything else fails.
func TestGeneratorsBitwise(t *testing.T) {
	rmat := func(scale, ef int, seed int64) func() uint64 {
		return func() uint64 {
			a, err := RMAT[float64](scale, ef, seed)
			if err != nil {
				t.Fatal(err)
			}
			return csrHash(a)
		}
	}
	cases := []struct {
		name string
		hash func() uint64
		want uint64
	}{
		{"er/n=1", func() uint64 { return csrHash(ErdosRenyi[float64](1, 0.5, 1)) }, 0x88201fb960ff6465},
		{"er/dense-k>=n", func() uint64 { return csrHash(ErdosRenyi[float64](20, 25, 1)) }, 0x5f90888a42a1d872},
		{"er/2^12xd16", func() uint64 { return csrHash(ErdosRenyi[float64](1<<12, 16, 7)) }, 0x65917eda1da398e7},
		{"rmat/scale4", rmat(4, 8, 3), 0xedc03ea207405073},
		{"rmat/scale10", rmat(10, 8, 5), 0x2c68712eb0fd1dd6},
		{"rmat/scale13", rmat(13, 16, 11), 0x23f806853fe5f02d},
		{"vec/dense-regime", func() uint64 { return vecHash(RandomVec[float64](1000, 500, 3)) }, 0xf6bf4c48bed9aa37},
		{"vec/sparse-regime", func() uint64 { return vecHash(RandomVec[float64](100000, 1000, 3)) }, 0x816874861f5f6c32},
		{"vec/clamped", func() uint64 { return vecHash(RandomVec[float64](50, 80, 3)) }, 0xa9964ccf88dedd85},
		{"booldense", func() uint64 {
			h := fnv.New64a()
			hashFloats(h, RandomBoolDense[float64](10000, 0.5, 4).Data)
			return h.Sum64()
		}, 0x013c9de8599b1de5},
	}
	for _, c := range cases {
		if got := c.hash(); got != c.want {
			t.Errorf("%s: hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
