package sparse

import (
	"slices"
	"sort"
	"sync"
)

// sortScratch pools the temporary buffers of the sorting routines so that
// steady-state sorting allocates nothing: merge buffers, radix ping-pong
// buffers, and the merge-sort worker semaphores. Package-global because the
// sorts are free functions; contents are value-irrelevant (every byte is
// overwritten before being read), so pooling cannot change results.
var sortScratch struct {
	mu     sync.Mutex
	ints   [][]int
	int32s [][]int32
	sems   []chan struct{}
}

func getSortInts(n int) []int {
	sortScratch.mu.Lock()
	for k := len(sortScratch.ints) - 1; k >= 0; k-- {
		if cap(sortScratch.ints[k]) >= n {
			s := sortScratch.ints[k][:n]
			sortScratch.ints[k] = sortScratch.ints[len(sortScratch.ints)-1]
			sortScratch.ints = sortScratch.ints[:len(sortScratch.ints)-1]
			sortScratch.mu.Unlock()
			return s
		}
	}
	sortScratch.mu.Unlock()
	return make([]int, n)
}

func putSortInts(s []int) {
	sortScratch.mu.Lock()
	sortScratch.ints = append(sortScratch.ints, s[:0])
	sortScratch.mu.Unlock()
}

func getSortInt32s(n int) []int32 {
	sortScratch.mu.Lock()
	for k := len(sortScratch.int32s) - 1; k >= 0; k-- {
		if cap(sortScratch.int32s[k]) >= n {
			s := sortScratch.int32s[k][:n]
			sortScratch.int32s[k] = sortScratch.int32s[len(sortScratch.int32s)-1]
			sortScratch.int32s = sortScratch.int32s[:len(sortScratch.int32s)-1]
			sortScratch.mu.Unlock()
			return s
		}
	}
	sortScratch.mu.Unlock()
	return make([]int32, n)
}

func putSortInt32s(s []int32) {
	sortScratch.mu.Lock()
	sortScratch.int32s = append(sortScratch.int32s, s[:0])
	sortScratch.mu.Unlock()
}

func getSortSem(workers int) chan struct{} {
	sortScratch.mu.Lock()
	for k := len(sortScratch.sems) - 1; k >= 0; k-- {
		if cap(sortScratch.sems[k]) >= workers {
			c := sortScratch.sems[k]
			sortScratch.sems[k] = sortScratch.sems[len(sortScratch.sems)-1]
			sortScratch.sems = sortScratch.sems[:len(sortScratch.sems)-1]
			sortScratch.mu.Unlock()
			return c
		}
	}
	sortScratch.mu.Unlock()
	return make(chan struct{}, workers)
}

func putSortSem(c chan struct{}) {
	sortScratch.mu.Lock()
	sortScratch.sems = append(sortScratch.sems, c)
	sortScratch.mu.Unlock()
}

// MergeSortInts sorts xs ascending with a parallel merge sort using up to
// workers goroutines, matching the "parallel merge sort available in Chapel"
// the paper's SpMSpV uses for its index-sorting step. Stats about the work
// performed (comparisons, element moves, recursion depth) are returned so the
// performance model can charge it faithfully.
func MergeSortInts(xs []int, workers int) SortStats {
	if workers < 1 {
		workers = 1
	}
	if len(xs) < 2 {
		return SortStats{}
	}
	if len(xs) <= mergeSortCutoff {
		// The recursion would immediately hit the leaf sort; skip the scratch
		// checkout entirely.
		return parallelMergeSort(xs, nil, nil, 0)
	}
	buf := getSortInts(len(xs))
	// The caller is one of the workers, so the semaphore admits workers-1
	// spawned halves beside it. At one worker it stays nil, which admits
	// none: the whole sort runs on the caller's goroutine.
	var sem chan struct{}
	if workers > 1 {
		sem = getSortSem(workers - 1)
	}
	st := parallelMergeSort(xs, buf, sem, 0)
	putSortInts(buf)
	if sem != nil {
		// A pooled semaphore must come back empty; parallelMergeSort's
		// spawns release their slot before reporting, so it is.
		putSortSem(sem)
	}
	return st
}

// SortStats records the work a sorting call performed, for cost accounting.
type SortStats struct {
	Comparisons int64
	Moves       int64
	Depth       int // recursion depth of the largest chain
}

func (s SortStats) add(o SortStats) SortStats {
	d := s.Depth
	if o.Depth > d {
		d = o.Depth
	}
	return SortStats{
		Comparisons: s.Comparisons + o.Comparisons,
		Moves:       s.Moves + o.Moves,
		Depth:       d + 1,
	}
}

const mergeSortCutoff = 2048

// parallelMergeSort sorts xs in place using buf as scratch. The left half is
// sorted concurrently when a worker slot is free; the result is reported on a
// per-spawn channel so nested levels synchronize only with their own child.
func parallelMergeSort(xs, buf []int, sem chan struct{}, depth int) SortStats {
	n := len(xs)
	if n <= mergeSortCutoff {
		sort.Ints(xs)
		// sort.Ints is introsort: ~n log n comparisons, ~n moves per level.
		c := int64(n) * log2int64(n)
		return SortStats{Comparisons: c, Moves: int64(n), Depth: depth}
	}
	mid := n / 2
	var leftStats, rightStats SortStats
	select {
	case sem <- struct{}{}:
		done := make(chan SortStats, 1)
		go func() {
			done <- parallelMergeSort(xs[:mid], buf[:mid], sem, depth+1)
			<-sem
		}()
		rightStats = parallelMergeSort(xs[mid:], buf[mid:], sem, depth+1)
		leftStats = <-done
	default:
		leftStats = parallelMergeSort(xs[:mid], buf[:mid], sem, depth+1)
		rightStats = parallelMergeSort(xs[mid:], buf[mid:], sem, depth+1)
	}
	m := mergeInts(xs, mid, buf)
	st := leftStats.add(rightStats)
	st.Comparisons += m.Comparisons
	st.Moves += m.Moves
	return st
}

// mergeInts merges the sorted halves xs[:mid] and xs[mid:] using buf.
func mergeInts(xs []int, mid int, buf []int) SortStats {
	copy(buf, xs[:mid])
	left, right := buf[:mid], xs[mid:]
	i, j, k := 0, 0, 0
	var comp int64
	for i < len(left) && j < len(right) {
		comp++
		if left[i] <= right[j] {
			xs[k] = left[i]
			i++
		} else {
			xs[k] = right[j]
			j++
		}
		k++
	}
	for i < len(left) {
		xs[k] = left[i]
		i++
		k++
	}
	return SortStats{Comparisons: comp, Moves: int64(len(xs))}
}

// RadixSortInts sorts non-negative xs ascending with an LSD radix sort
// (8-bit digits), the "less expensive integer sorting algorithm (e.g., radix
// sort)" the paper expects to reduce the SpMSpV sorting cost. Returns the
// number of counting passes, one per byte of the maximum, for cost
// accounting; a short xs is insertion-sorted instead and reports the same.
func RadixSortInts(xs []int) int {
	if len(xs) < 2 {
		return 0
	}
	maxV := slices.Max(xs)
	if len(xs) <= radixInsertionCutoff {
		insertionSort(xs)
		return bytePasses(maxV)
	}
	buf := getSortInts(len(xs))
	passes := radixSort(xs, buf, maxV)
	putSortInts(buf)
	return passes
}

// RadixSortInts32 sorts non-negative int32 values ascending with the same LSD
// radix approach as RadixSortInts; used for compacted position buffers.
func RadixSortInts32(xs []int32) int {
	if len(xs) < 2 {
		return 0
	}
	maxV := slices.Max(xs)
	if len(xs) <= radixInsertionCutoff {
		insertionSort(xs)
		return bytePasses(maxV)
	}
	buf := getSortInt32s(len(xs))
	passes := radixSort(xs, buf, maxV)
	putSortInt32s(buf)
	return passes
}

// radixInsertionCutoff is the length at or below which the radix sorts
// insertion-sort instead: a 256-bucket counting pass per byte costs more
// than the quadratic sort on a row of a few dozen entries. Chosen by
// measurement (BenchmarkRadixSortShortRows). The pass count returned is the
// radix sort's either way, so what a caller charges does not depend on it.
const radixInsertionCutoff = 48

// bytePasses is the number of 8-bit digits of maxV: the counting passes an
// LSD radix sort makes over keys whose maximum is maxV.
func bytePasses[E int | int32](maxV E) int {
	passes := 0
	for shift := uint(0); maxV>>shift > 0; shift += 8 {
		passes++
	}
	return passes
}

// insertionSort sorts xs ascending in place. On rows of at most
// radixInsertionCutoff entries it takes about two thirds of slices.Sort's
// time.
func insertionSort[E int | int32](xs []E) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for ; j > 0 && xs[j-1] > x; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}

// radixSort sorts non-negative xs, whose maximum is maxV, with 8-bit LSD
// counting passes through buf (len(xs) long) and returns the pass count.
func radixSort[E int | int32](xs, buf []E, maxV E) int {
	passes := bytePasses(maxV)
	src, dst := xs, buf
	for p := 0; p < passes; p++ {
		countingPass(src, dst, uint(8*p))
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(xs, src)
	}
	return passes
}

// countingPass stably scatters src into dst by the byte of each key at
// shift. A function of its own so that its loops keep their few live values
// in registers.
func countingPass[E int | int32](src, dst []E, shift uint) {
	var count [256]int
	for _, x := range src {
		count[(x>>shift)&0xFF]++
	}
	sum := 0
	for i := range count {
		c := count[i]
		count[i] = sum
		sum += c
	}
	for _, x := range src {
		d := (x >> shift) & 0xFF
		dst[count[d]] = x
		count[d]++
	}
}

// log2int64 returns ceil(log2(n)) for n >= 1 (0 for n <= 1), as int64.
func log2int64(n int) int64 {
	var l int64
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
