package sparse

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMergeSortInts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 100, 2048, 2049, 10000, 100000} {
		for _, workers := range []int{1, 2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(n + workers)))
			xs := make([]int, n)
			for i := range xs {
				xs[i] = rng.Intn(1 << 20)
			}
			want := append([]int(nil), xs...)
			sort.Ints(want)
			st := MergeSortInts(xs, workers)
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("n=%d workers=%d: mismatch at %d", n, workers, i)
				}
			}
			if n >= 2 && st.Comparisons == 0 {
				t.Errorf("n=%d: no comparisons recorded", n)
			}
		}
	}
}

func TestMergeSortAlreadySortedAndReverse(t *testing.T) {
	n := 50000
	asc := make([]int, n)
	desc := make([]int, n)
	for i := range asc {
		asc[i] = i
		desc[i] = n - i
	}
	MergeSortInts(asc, 4)
	MergeSortInts(desc, 4)
	if !sort.IntsAreSorted(asc) || !sort.IntsAreSorted(desc) {
		t.Fatal("pre-sorted or reversed input not handled")
	}
}

func TestMergeSortDuplicates(t *testing.T) {
	xs := make([]int, 30000)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = rng.Intn(7) // heavy duplication
	}
	MergeSortInts(xs, 4)
	if !sort.IntsAreSorted(xs) {
		t.Fatal("duplicates not handled")
	}
}

func TestMergeSortQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		xs := make([]int, len(raw))
		for i, r := range raw {
			xs[i] = int(r)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		MergeSortInts(xs, 3)
		for i := range xs {
			if xs[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixSortInts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 257, 65536, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(1 << 30)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		passes := RadixSortInts(xs)
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
		if n >= 2 && passes == 0 {
			t.Errorf("n=%d: no passes recorded", n)
		}
	}
}

func TestRadixSortSmallValues(t *testing.T) {
	// Values that fit one digit should take exactly one pass.
	xs := []int{5, 3, 200, 0, 255, 17}
	passes := RadixSortInts(xs)
	if !sort.IntsAreSorted(xs) {
		t.Fatal("not sorted")
	}
	if passes != 1 {
		t.Errorf("passes = %d, want 1", passes)
	}
	// Larger values take more passes (odd pass count exercises the copy-back).
	ys := []int{1 << 16, 3, 70000, 255}
	p2 := RadixSortInts(ys)
	if !sort.IntsAreSorted(ys) {
		t.Fatal("not sorted (multi-pass)")
	}
	if p2 != 3 {
		t.Errorf("passes = %d, want 3", p2)
	}
}

func TestRadixSortAllEqual(t *testing.T) {
	xs := []int{4, 4, 4, 4}
	RadixSortInts(xs)
	if !sort.IntsAreSorted(xs) {
		t.Fatal("all-equal broke radix sort")
	}
	zeros := []int{0, 0, 0}
	RadixSortInts(zeros) // max=0: zero passes, already sorted
	if !sort.IntsAreSorted(zeros) {
		t.Fatal("all-zero broke radix sort")
	}
}

func TestRadixMatchesMergeQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		a := make([]int, len(raw))
		b := make([]int, len(raw))
		for i, r := range raw {
			a[i] = int(r)
			b[i] = int(r)
		}
		RadixSortInts(a)
		MergeSortInts(b, 2)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortStatsAccumulate(t *testing.T) {
	a := SortStats{Comparisons: 10, Moves: 5, Depth: 2}
	b := SortStats{Comparisons: 3, Moves: 7, Depth: 4}
	c := a.add(b)
	if c.Comparisons != 13 || c.Moves != 12 || c.Depth != 5 {
		t.Fatalf("add wrong: %+v", c)
	}
}

func TestLog2Int64(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2int64(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestMergeSortOneWorkerAllocatesNothing: at one worker the caller is the
// only worker, so no half is spawned and a warm sort allocates nothing (no
// goroutine, no result channel).
func TestMergeSortOneWorkerAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	base := make([]int, 40000)
	for i := range base {
		base[i] = rng.Intn(1 << 30)
	}
	xs := make([]int, len(base))
	if avg := testing.AllocsPerRun(20, func() {
		copy(xs, base)
		MergeSortInts(xs, 1)
	}); avg != 0 {
		t.Fatalf("MergeSortInts at one worker allocates %.1f objects per call, want 0", avg)
	}
}

// TestMergeSortStatsIndependentOfWorkers: comparisons, moves and depth are
// the same at every worker count (they are what the modeled clock charges),
// and equal the counts the sort reported before its semaphore was resized.
func TestMergeSortStatsIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := make([]int, 40000)
	for i := range base {
		base[i] = rng.Intn(1 << 30)
	}
	want := SortStats{Comparisons: 639934, Moves: 240000, Depth: 10}
	for _, workers := range []int{1, 2, 4} {
		xs := append([]int(nil), base...)
		if got := MergeSortInts(xs, workers); got != want {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, got, want)
		}
		if !slices.IsSorted(xs) {
			t.Errorf("workers=%d: not sorted", workers)
		}
	}
}
