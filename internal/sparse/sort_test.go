package sparse

import (
	"hash/fnv"
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

// mergeSortPinInput builds the keys of one TestMergeSortStatsPinned case.
func mergeSortPinInput(kind string, n int) []int {
	rng := rand.New(rand.NewSource(int64(n)))
	xs := make([]int, n)
	for i := range xs {
		switch kind {
		case "random":
			xs[i] = rng.Intn(1 << 20)
		case "ascending":
			xs[i] = i
		case "descending":
			xs[i] = n - i
		case "equal":
			xs[i] = 5
		case "7-valued":
			xs[i] = rng.Intn(7)
		}
	}
	return xs
}

// TestMergeSortStatsPinned pins what the modeled clock reads from the merge
// sort — comparisons, moves and depth — and an FNV-64a hash of the sorted
// output, on five key shapes at lengths on both sides of the radix sorts'
// insertion cutoff (48) and of the merge sort's leaf (2048), at one, two
// and four workers. The numbers were recorded from the pdqsort-leaf,
// branching-merge sort; a rewrite of how the host sorts must pass unchanged.
func TestMergeSortStatsPinned(t *testing.T) {
	cases := []struct {
		kind string
		n    int
		want SortStats
		hash uint64
	}{
		{"random", 2, SortStats{2, 2, 0}, 0x2fd1d5f88d68d86e},
		{"random", 47, SortStats{282, 47, 0}, 0xe15a1da1571f556f},
		{"random", 48, SortStats{288, 48, 0}, 0xde93572eb9892165},
		{"random", 49, SortStats{294, 49, 0}, 0xcadf5d5eb45762a8},
		{"random", 2048, SortStats{22528, 2048, 0}, 0xd6c10d4103de56d3},
		{"random", 2049, SortStats{23563, 4098, 2}, 0x0578f390f25a8d76},
		{"random", 40000, SortStats{639946, 240000, 10}, 0x80de242024fe7e21},
		{"random", 126000, SortStats{2141885, 882000, 12}, 0xab21822b88de0b42},
		{"ascending", 2, SortStats{2, 2, 0}, 0x692558b056101a44},
		{"ascending", 47, SortStats{282, 47, 0}, 0x7359e9f615abc3aa},
		{"ascending", 48, SortStats{288, 48, 0}, 0xb3b77ea82cd3a625},
		{"ascending", 49, SortStats{294, 49, 0}, 0xc6133874d4e57ab5},
		{"ascending", 2048, SortStats{22528, 2048, 0}, 0x217a8ebb0efc9725},
		{"ascending", 2049, SortStats{22539, 4098, 2}, 0xf3348b24f12c96ed},
		{"ascending", 40000, SortStats{540000, 240000, 10}, 0x37ee5fb90dd11d25},
		{"ascending", 126000, SortStats{1763984, 882000, 12}, 0xc58bc57dc6e3c1a5},
		{"descending", 2, SortStats{2, 2, 0}, 0x7717980363c8e066},
		{"descending", 47, SortStats{282, 47, 0}, 0xaa24e5d2aa9ca585},
		{"descending", 48, SortStats{288, 48, 0}, 0x309b728e0c12ae55},
		{"descending", 49, SortStats{294, 49, 0}, 0xaa1cb191ac2d62e4},
		{"descending", 2048, SortStats{22528, 2048, 0}, 0x182d4ebc7b40e24d},
		{"descending", 2049, SortStats{22540, 4098, 2}, 0xeb5e21557059baa4},
		{"descending", 40000, SortStats{540000, 240000, 10}, 0x733bd70174a3acf1},
		{"descending", 126000, SortStats{1764016, 882000, 12}, 0x5cecb7dc862bdd78},
		{"equal", 2, SortStats{2, 2, 0}, 0x980f95fe38425dc5},
		{"equal", 47, SortStats{282, 47, 0}, 0xb74bdfcb4efd5f80},
		{"equal", 48, SortStats{288, 48, 0}, 0x096800fecb70c225},
		{"equal", 49, SortStats{294, 49, 0}, 0x49a1d0a14d864620},
		{"equal", 2048, SortStats{22528, 2048, 0}, 0x0b7408c2a1bca325},
		{"equal", 2049, SortStats{22539, 4098, 2}, 0x2c335d72eb584720},
		{"equal", 40000, SortStats{540000, 240000, 10}, 0xbca0e1d329a3b725},
		{"equal", 126000, SortStats{1763984, 882000, 12}, 0x94104818aa8e8225},
		{"7-valued", 2, SortStats{2, 2, 0}, 0xbd36edcd222d23a0},
		{"7-valued", 47, SortStats{282, 47, 0}, 0x293a378812cc6364},
		{"7-valued", 48, SortStats{288, 48, 0}, 0xcbc606be5bf01027},
		{"7-valued", 49, SortStats{294, 49, 0}, 0xce0def90f0f8a363},
		{"7-valued", 2048, SortStats{22528, 2048, 0}, 0x6f20c889c60649a4},
		{"7-valued", 2049, SortStats{23414, 4098, 2}, 0xa0de13bc332b2243},
		{"7-valued", 40000, SortStats{625849, 240000, 10}, 0x968ed89b9e3cf421},
		{"7-valued", 126000, SortStats{2087919, 882000, 12}, 0x5cb43f0f66e1e221},
	}
	for _, c := range cases {
		base := mergeSortPinInput(c.kind, c.n)
		for _, workers := range []int{1, 2, 4} {
			xs := slices.Clone(base)
			got := MergeSortInts(xs, workers)
			h := fnv.New64a()
			hashInts64(h, xs)
			if got != c.want {
				t.Errorf("%s n=%d workers=%d: stats %+v, want %+v", c.kind, c.n, workers, got, c.want)
			}
			if h.Sum64() != c.hash {
				t.Errorf("%s n=%d workers=%d: output hash %#016x, want %#016x", c.kind, c.n, workers, h.Sum64(), c.hash)
			}
		}
	}
}
