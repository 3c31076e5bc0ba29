package sparse

import (
	"math"
	"math/rand"

	"repro/internal/semiring"
)

// ErdosRenyi generates an n×n sparse matrix from the G(n, p) model with
// p = d/n, so that in expectation d nonzeros are uniformly distributed in
// each row. Values are drawn uniformly from [1, 100). The generator is
// deterministic for a given seed.
//
// Rather than flipping n² coins, each row draws its nonzero count from the
// Binomial(n, d/n) distribution (approximated by a normal for large n, exact
// for small) and then samples that many distinct column ids — equivalent in
// distribution and O(nnz) time.
func ErdosRenyi[T semiring.Number](n int, d float64, seed int64) *CSR[T] {
	rng := rand.New(rand.NewSource(seed))
	a := NewCSR[T](n, n)
	est := int(float64(n)*d*11/10) + 16
	a.ColIdx = make([]int, 0, est)
	a.Val = make([]T, 0, est)
	p := d / float64(n)
	if p > 1 {
		p = 1
	}
	scratch := make(map[int]struct{}, int(d*2)+8)
	var row []int
	for i := 0; i < n; i++ {
		k := binomial(rng, n, p)
		sampleDistinct(rng, n, k, scratch)
		row = row[:0]
		for j := range scratch {
			row = append(row, j)
		}
		RadixSortInts(row)
		a.ColIdx = append(a.ColIdx, row...)
		for range row {
			a.Val = append(a.Val, T(1+rng.Intn(99)))
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// binomial draws from Binomial(n, p): exact inversion for small mean, normal
// approximation (clamped) for large.
func binomial(rng *rand.Rand, n int, p float64) int {
	mean := float64(n) * p
	if mean < 32 {
		// Knuth-style: count geometric jumps.
		if p <= 0 {
			return 0
		}
		lq := math.Log1p(-p)
		k, x := 0, 0
		for {
			step := int(math.Floor(math.Log(1-rng.Float64())/lq)) + 1
			x += step
			if x > n {
				break
			}
			k++
		}
		return k
	}
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*rng.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// sampleDistinct fills out with k distinct integers in [0, n) using Floyd's
// algorithm. out is cleared first.
func sampleDistinct(rng *rand.Rand, n, k int, out map[int]struct{}) {
	for j := range out {
		delete(out, j)
	}
	if k >= n {
		for j := 0; j < n; j++ {
			out[j] = struct{}{}
		}
		return
	}
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, dup := out[t]; dup {
			out[j] = struct{}{}
		} else {
			out[t] = struct{}{}
		}
	}
}

// RandomVec generates a sparse vector of capacity n with exactly nnz stored
// elements at distinct uniformly random indices (so density f = nnz/n, the
// paper's workload parameter). Values are drawn uniformly from [1, 100).
func RandomVec[T semiring.Number](n, nnz int, seed int64) *Vec[T] {
	if nnz > n {
		nnz = n
	}
	rng := rand.New(rand.NewSource(seed))
	v := &Vec[T]{N: n, Ind: make([]int, 0, nnz), Val: make([]T, 0, nnz)}
	if nnz*8 > n {
		// Dense regime: a partial Fisher–Yates shuffle of [0, n) is faster
		// and far smaller than a hash set at the 100M-nonzero scales of the
		// paper's experiments.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < nnz; i++ {
			j := i + rng.Intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		v.Ind = v.Ind[:nnz]
		copy(v.Ind, perm[:nnz])
		RadixSortInts(v.Ind)
	} else {
		set := make(map[int]struct{}, nnz*2)
		sampleDistinct(rng, n, nnz, set)
		for i := range set {
			v.Ind = append(v.Ind, i)
		}
		RadixSortInts(v.Ind)
	}
	for range v.Ind {
		v.Val = append(v.Val, T(1+rng.Intn(99)))
	}
	return v
}

// RandomBoolDense generates a dense vector of capacity n whose entries are 1
// with probability keep (else 0). The paper initializes the dense eWiseMult
// operand this way so that about half the sparse entries survive.
func RandomBoolDense[T semiring.Number](n int, keep float64, seed int64) *Dense[T] {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense[T](n)
	for i := range d.Data {
		if rng.Float64() < keep {
			d.Data[i] = 1
		}
	}
	return d
}

// RMAT generates a scale-free 2^scale × 2^scale matrix with edgeFactor
// nonzeros per row in expectation, using the recursive R-MAT process with
// the Graph500 parameters (a,b,c,d) = (0.57, 0.19, 0.19, 0.05). Duplicate
// coordinates are summed. Useful as a skewed counterpart to Erdős–Rényi in
// tests and examples.
func RMAT[T semiring.Number](scale int, edgeFactor int, seed int64) (*CSR[T], error) {
	n := 1 << scale
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	coo := &COO[T]{NRows: n, NCols: n, Rows: make([]int, 0, m), Cols: make([]int, 0, m), Vals: make([]T, 0, m)}
	for e := 0; e < m; e++ {
		i, j := 0, 0
		for bit := n >> 1; bit > 0; bit >>= 1 {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant
			case r < a+b:
				j |= bit
			case r < a+b+c:
				i |= bit
			default:
				i |= bit
				j |= bit
			}
		}
		coo.Append(i, j, 1)
	}
	return coo.ToCSR(semiring.Plus[T])
}

// Ring generates the adjacency matrix of a directed n-cycle (i -> i+1 mod n)
// with unit weights; handy for deterministic tests of traversal algorithms.
func Ring[T semiring.Number](n int) *CSR[T] {
	a := NewCSR[T](n, n)
	a.ColIdx = make([]int, n)
	a.Val = make([]T, n)
	for i := 0; i < n; i++ {
		a.ColIdx[i] = (i + 1) % n
		a.Val[i] = 1
		a.RowPtr[i+1] = i + 1
	}
	return a
}

// Grid2D generates the adjacency matrix of an undirected rows×cols grid graph
// (4-neighborhood), unit weights. The matrix is symmetric.
func Grid2D[T semiring.Number](rows, cols int) (*CSR[T], error) {
	n := rows * cols
	coo := NewCOO[T](n, n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				coo.Append(id(r, c), id(r, c+1), 1)
				coo.Append(id(r, c+1), id(r, c), 1)
			}
			if r+1 < rows {
				coo.Append(id(r, c), id(r+1, c), 1)
				coo.Append(id(r+1, c), id(r, c), 1)
			}
		}
	}
	return coo.ToCSR(semiring.Second[T])
}
