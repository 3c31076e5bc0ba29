package sparse

// Kernel-level ground truth for the SpMSpV engine ablation (ablengine): the
// real wall-clock cost of producing sorted, duplicate-free output indices via
// merge sort, radix sort (int and int32), and the sort-free bucket
// scatter+merge+emit path, on the same index stream. RadixSortInts32 is the
// variant eWiseMult's survivor compaction uses (internal/core/ewisemult.go);
// it is benchmarked here alongside the others so the int32 specialization has
// a measured justification too.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

const (
	benchDomain  = 1 << 20 // index domain [0, n)
	benchEntries = 1 << 17 // entries in the stream (~keys to sort)
)

func benchIndexStream() ([]int, []int32) {
	r := rand.New(rand.NewSource(42))
	xs := make([]int, benchEntries)
	xs32 := make([]int32, benchEntries)
	for k := range xs {
		xs[k] = r.Intn(benchDomain)
		xs32[k] = int32(xs[k])
	}
	return xs, xs32
}

// BenchmarkSpMSpVKernelMergeSort runs the merge sort at one worker, the
// shape the end-to-end benchmark's lib-kernels workload runs, and at four.
func BenchmarkSpMSpVKernelMergeSort(b *testing.B) {
	base, _ := benchIndexStream()
	buf := make([]int, len(base))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, base)
				MergeSortInts(buf, workers)
			}
		})
	}
}

func BenchmarkSpMSpVKernelRadixSort(b *testing.B) {
	base, _ := benchIndexStream()
	buf := make([]int, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		RadixSortInts(buf)
	}
}

func BenchmarkSpMSpVKernelRadixSort32(b *testing.B) {
	_, base := benchIndexStream()
	buf := make([]int32, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		RadixSortInts32(buf)
	}
}

// BenchmarkSpMSpVKernelBucketEmit measures the full sort-free alternative:
// scatter every entry into worker-private bucket runs, merge, and emit in
// order. This does strictly more than the sorts above (it also deduplicates
// and carries values), yet is the drop-in replacement for the Sort step.
func BenchmarkSpMSpVKernelBucketEmit(b *testing.B) {
	base, _ := benchIndexStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewBucketSPA[int64](benchDomain, 4, 64)
		for w := 0; w < 4; w++ {
			lo, hi := w*len(base)/4, (w+1)*len(base)/4
			for k := lo; k < hi; k++ {
				s.Append(w, base[k], int64(k))
			}
		}
		ind, _, _ := s.Merge(nil, 4)
		if len(ind) == 0 {
			b.Fatal("empty emission")
		}
	}
}

// BenchmarkRadixSortShortRows times the two halves of RadixSortInts on rows
// of the length an Erdős–Rényi row or a hash-SpGEMM output row has, keys in
// [0, 2^17) (three byte passes): the insertion sort must win at and below
// radixInsertionCutoff and the counting passes above it.
func BenchmarkRadixSortShortRows(b *testing.B) {
	const rows = 256
	for _, n := range []int{8, 16, 32, 48, 64, 96, 128} {
		r := rand.New(rand.NewSource(int64(n)))
		base := make([]int, rows*n)
		for k := range base {
			base[k] = r.Intn(1 << 17)
		}
		xs := make([]int, len(base))
		buf := make([]int, n)
		for _, alg := range []struct {
			name string
			sort func(row []int, maxV int)
		}{
			{"insertion", func(row []int, _ int) { insertionSort(row) }},
			{"radix", func(row []int, maxV int) { radixSort(row, buf, maxV) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, alg.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(xs, base)
					for k := 0; k < rows; k++ {
						row := xs[k*n : (k+1)*n]
						alg.sort(row, slices.Max(row))
					}
				}
			})
		}
	}
}
