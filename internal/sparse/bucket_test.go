package sparse

import (
	"math/rand"
	"repro/internal/semiring"
	"slices"
	"testing"
)

// bucketReference resolves the same append stream with the sequential SPA and
// a merge sort — the ground truth the bucket SPA must reproduce bitwise.
func bucketReference(n int, inds []int, vals []int64, firstWins bool) ([]int, []int64) {
	spa := NewSPA[int64](n)
	for k, i := range inds {
		if firstWins {
			spa.ScatterFirst(i, vals[k])
		} else {
			spa.Scatter(i, vals[k], func(a, b int64) int64 { return a + b })
		}
	}
	out := spa.Gather(func(xs []int) { MergeSortInts(xs, 1) })
	return out.Ind, out.Val
}

// appendChunked feeds the entry stream into the bucket SPA the way the
// SpMSpV engine does: contiguous ascending chunks, one per worker.
func appendChunked(s *BucketSPA[int64], inds []int, vals []int64) {
	n := len(inds)
	for w := 0; w < s.Workers; w++ {
		lo, hi := w*n/s.Workers, (w+1)*n/s.Workers
		for k := lo; k < hi; k++ {
			s.Append(w, inds[k], vals[k])
		}
	}
}

// emitDenseFirstWins resolves the entry stream the way a single writer does:
// claim straight into the dense scratch, then one EmitDense scan.
func emitDenseFirstWins(s *BucketSPA[int64], inds []int, vals []int64) ([]int, []int64, BucketMergeStats) {
	val, there := s.Dense()
	for k, i := range inds {
		if !there[i] {
			there[i] = true
			val[i] = vals[k]
		}
	}
	return s.EmitDense(int64(len(inds)), nil, nil)
}

// naiveHarvest is the branching scan HarvestFlags replaces: base+i for every
// set flags[i], ascending.
func naiveHarvest(flags []bool, base int) []int {
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, base+i)
		}
	}
	return out
}

// checkHarvest runs HarvestFlags on a copy of flags and compares it with the
// naive scan: same positions in the same order, same count, every flag
// cleared afterwards.
func checkHarvest(t *testing.T, flags []bool, base int) {
	t.Helper()
	want := naiveHarvest(flags, base)
	got := slices.Clone(flags)
	out := make([]int, len(flags))
	k := HarvestFlags(got, base, out)
	if k != len(want) || !slices.Equal(out[:k], want) {
		t.Fatalf("HarvestFlags(len %d, base %d) = %v (count %d), want %v", len(flags), base, out[:k], k, want)
	}
	if i := slices.Index(got, true); i >= 0 {
		t.Fatalf("HarvestFlags(len %d, base %d) left flag %d set", len(flags), base, i)
	}
}

// TestHarvestFlagsEdges covers the harvest's boundary cases. The loop writes
// every position, so only-last is the case where the final unconditional
// write lands on the one slot that holds a result.
func TestHarvestFlagsEdges(t *testing.T) {
	only := func(n, i int) []bool {
		f := make([]bool, n)
		f[i] = true
		return f
	}
	all := make([]bool, 9)
	for i := range all {
		all[i] = true
	}
	for _, tc := range []struct {
		name  string
		flags []bool
	}{
		{"empty", []bool{}},
		{"none set", make([]bool, 9)},
		{"all set", all},
		{"only first", only(9, 0)},
		{"only last", only(9, 8)},
		{"single set", only(1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, base := range []int{0, 1000} {
				checkHarvest(t, tc.flags, base)
			}
		})
	}
}

func TestBucketSPAFirstWins(t *testing.T) {
	s := NewBucketSPA[int64](10, 1, 3)
	for _, e := range []struct {
		i int
		v int64
	}{{7, 70}, {2, 20}, {7, 71}, {0, 1}, {2, 22}} {
		s.Append(0, e.i, e.v)
	}
	ind, val, st := s.Merge(nil, 1)
	wantInd := []int{0, 2, 7}
	wantVal := []int64{1, 20, 70}
	if len(ind) != 3 {
		t.Fatalf("got %d entries, want 3", len(ind))
	}
	for k := range wantInd {
		if ind[k] != wantInd[k] || val[k] != wantVal[k] {
			t.Fatalf("entry %d = (%d,%d), want (%d,%d)", k, ind[k], val[k], wantInd[k], wantVal[k])
		}
	}
	if st.Entries != 5 || st.Claimed != 3 || st.Scanned != 10 {
		t.Errorf("stats %+v, want Entries=5 Claimed=3 Scanned=10", st)
	}
}

func TestBucketSPAMonoidAccumulate(t *testing.T) {
	s := NewBucketSPA[int64](8, 2, 4)
	s.Append(0, 3, 5)
	s.Append(0, 6, 1)
	s.Append(1, 3, 7)
	s.Append(1, 3, 2)
	ind, val, _ := s.Merge(func(a, b int64) int64 { return a + b }, 2)
	if len(ind) != 2 || ind[0] != 3 || ind[1] != 6 {
		t.Fatalf("indices %v, want [3 6]", ind)
	}
	if val[0] != 14 || val[1] != 1 {
		t.Fatalf("values %v, want [14 1]", val)
	}
}

// The result must not depend on the bucket count, the worker count, or the
// merge parallelism — only on the append order.
func TestBucketSPAShapeInvariance(t *testing.T) {
	const n = 1000
	r := rand.New(rand.NewSource(7))
	inds := make([]int, 5000)
	vals := make([]int64, len(inds))
	for k := range inds {
		inds[k] = r.Intn(n)
		vals[k] = int64(k)
	}
	wantInd, wantVal := bucketReference(n, inds, vals, true)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, buckets := range []int{1, 2, 7, 16, 100, n, 3 * n} {
			s := NewBucketSPA[int64](n, workers, buckets)
			appendChunked(s, inds, vals)
			ind, val, st := s.Merge(nil, workers)
			if len(ind) != len(wantInd) {
				t.Fatalf("w=%d b=%d: nnz %d, want %d", workers, buckets, len(ind), len(wantInd))
			}
			for k := range ind {
				if ind[k] != wantInd[k] || val[k] != wantVal[k] {
					t.Fatalf("w=%d b=%d: entry %d = (%d,%d), want (%d,%d)",
						workers, buckets, k, ind[k], val[k], wantInd[k], wantVal[k])
				}
			}
			if st.Entries != int64(len(inds)) {
				t.Fatalf("w=%d b=%d: merged %d entries, want %d", workers, buckets, st.Entries, len(inds))
			}
			// The single-writer dense path on the same (now clean) instance:
			// same entries, same stats, and it leaves the instance clean too.
			for pass := 0; pass < 2; pass++ {
				dInd, dVal, dSt := emitDenseFirstWins(s, inds, vals)
				if dSt != st || !slices.Equal(dInd, ind) || !slices.Equal(dVal, val) {
					t.Fatalf("w=%d b=%d pass %d: dense path %+v differs from the bucket merge %+v", workers, buckets, pass, dSt, st)
				}
			}
		}
	}
}

func TestBucketSPAEmpty(t *testing.T) {
	s := NewBucketSPA[int64](0, 0, 0)
	ind, val, st := s.Merge(nil, 4)
	if len(ind) != 0 || len(val) != 0 || st.Claimed != 0 {
		t.Fatalf("empty SPA produced %v/%v/%+v", ind, val, st)
	}
	s2 := NewBucketSPA[int64](5, 2, 8) // buckets capped at n
	if s2.Buckets != 5 {
		t.Fatalf("buckets = %d, want capped to 5", s2.Buckets)
	}
	for i := 0; i < 5; i++ {
		if b := s2.BucketOf(i); b < 0 || b >= s2.Buckets || i < s2.bounds[b] || i >= s2.bounds[b+1] {
			t.Fatalf("BucketOf(%d) = %d outside its range", i, b)
		}
	}
}

// Merge resolves every bucket and emits the result into fresh slices; see
// MergeInto for the reusable-buffer form and the resolution rules.
func (s *BucketSPA[T]) Merge(op semiring.BinaryOp[T], parallel int) (ind []int, val []T, st BucketMergeStats) {
	return s.MergeInto(op, nil, parallel, nil, nil)
}
