// Package dist implements the block-distributed sparse containers the paper
// builds on: 2-D block-distributed sparse matrices (one CSR block per locale)
// and 1-D block-distributed sparse and dense vectors laid out across the same
// locale grid.
//
// The design mirrors Chapel's SparseBlockDom / SparseBlockArr split: each
// distributed container is a descriptor holding one *local* domain/array per
// locale (the mySparseBlock / myElems of the paper's listings). The paper's
// optimized operations work by manipulating these local structures directly;
// the naive operations iterate the global index space and pay fine-grained
// remote access for every element that is not local.
package dist

import (
	"fmt"

	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// Mat is a 2-D block-distributed sparse matrix: the locale grid is Pr×Pc,
// row band r of the matrix is split across grid row r, column band c across
// grid column c. Locale (r, c) stores block (r, c) as a local CSR with local
// (block-relative) indices.
type Mat[T semiring.Number] struct {
	G            *locale.Grid
	NRows, NCols int
	// RowBands has Pr+1 entries; grid row r owns matrix rows
	// [RowBands[r], RowBands[r+1]). Similarly ColBands with Pc+1 entries.
	RowBands, ColBands []int
	// Blocks[l] is the CSR block stored on locale l.
	Blocks []*sparse.CSR[T]
	// Replicas[l], when replication is on (ReplicateMat), is the chained-
	// declustering copy of block l held by locale ReplicaOwner(l) = (l+1)%P.
	// Nil means the matrix is unreplicated (the default).
	Replicas []*sparse.CSR[T]
}

// MatFromCSR distributes a global CSR matrix over the runtime's grid.
func MatFromCSR[T semiring.Number](rt *locale.Runtime, a *sparse.CSR[T]) *Mat[T] {
	g := rt.G
	m := &Mat[T]{
		G:        g,
		NRows:    a.NRows,
		NCols:    a.NCols,
		RowBands: locale.BlockBounds(a.NRows, g.Pr),
		ColBands: locale.BlockBounds(a.NCols, g.Pc),
		Blocks:   make([]*sparse.CSR[T], g.P),
	}
	for l := 0; l < g.P; l++ {
		r, c := g.Coords(l)
		m.Blocks[l] = a.SubMatrix(m.RowBands[r], m.RowBands[r+1], m.ColBands[c], m.ColBands[c+1])
	}
	return m
}

// NNZ returns the total number of stored elements.
func (m *Mat[T]) NNZ() int {
	total := 0
	for _, b := range m.Blocks {
		total += b.NNZ()
	}
	return total
}

// Get returns element (i, j) of the global matrix.
func (m *Mat[T]) Get(i, j int) (T, bool) {
	r := locale.OwnerOf(m.NRows, m.G.Pr, i)
	c := locale.OwnerOf(m.NCols, m.G.Pc, j)
	return m.Blocks[m.G.ID(r, c)].Get(i-m.RowBands[r], j-m.ColBands[c])
}

// ToCSR gathers the distributed matrix back into one global CSR (for tests
// and verification; not an operation the paper's library exposes). The blocks
// are sorted CSR over disjoint column bands, so a global row is its pieces
// concatenated in band order — no sort.
func (m *Mat[T]) ToCSR() (*sparse.CSR[T], error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	g := m.G
	out := sparse.NewCSR[T](m.NRows, m.NCols)
	out.ColIdx = make([]int, 0, m.NNZ())
	out.Val = make([]T, 0, m.NNZ())
	for r := 0; r < g.Pr; r++ {
		for i := m.RowBands[r]; i < m.RowBands[r+1]; i++ {
			for c := 0; c < g.Pc; c++ {
				cols, vals := m.Blocks[g.ID(r, c)].Row(i - m.RowBands[r])
				for _, j := range cols {
					out.ColIdx = append(out.ColIdx, m.ColBands[c]+j)
				}
				out.Val = append(out.Val, vals...)
			}
			out.RowPtr[i+1] = len(out.ColIdx)
		}
	}
	return out, nil
}

// Validate checks every block and the band structure.
func (m *Mat[T]) Validate() error {
	if len(m.Blocks) != m.G.P {
		return fmt.Errorf("dist: mat: %d blocks for %d locales", len(m.Blocks), m.G.P)
	}
	for l, b := range m.Blocks {
		r, c := m.G.Coords(l)
		if b.NRows != m.RowBands[r+1]-m.RowBands[r] {
			return fmt.Errorf("dist: mat: block %d has %d rows, band has %d",
				l, b.NRows, m.RowBands[r+1]-m.RowBands[r])
		}
		if b.NCols != m.ColBands[c+1]-m.ColBands[c] {
			return fmt.Errorf("dist: mat: block %d has %d cols, band has %d",
				l, b.NCols, m.ColBands[c+1]-m.ColBands[c])
		}
		if err := b.Validate(); err != nil {
			return fmt.Errorf("dist: mat: block %d: %w", l, err)
		}
	}
	return nil
}

// SpVec is a 1-D block-distributed sparse vector: the N indices are block
// partitioned across all P locales in row-major grid order; locale l owns
// global indices [Bounds[l], Bounds[l+1]) and stores the ones present in a
// local sparse.Vec whose indices are GLOBAL (as Chapel's block-distributed
// sparse domains store global indices).
type SpVec[T semiring.Number] struct {
	G      *locale.Grid
	N      int
	Bounds []int // P+1 entries
	Loc    []*sparse.Vec[T]
}

// NewSpVec returns an empty distributed sparse vector of capacity n.
func NewSpVec[T semiring.Number](rt *locale.Runtime, n int) *SpVec[T] {
	g := rt.G
	v := &SpVec[T]{G: g, N: n, Bounds: locale.BlockBounds(n, g.P), Loc: make([]*sparse.Vec[T], g.P)}
	for l := 0; l < g.P; l++ {
		v.Loc[l] = sparse.NewVec[T](n)
	}
	return v
}

// SpVecFromVec distributes a local sparse vector over the runtime's grid.
func SpVecFromVec[T semiring.Number](rt *locale.Runtime, x *sparse.Vec[T]) *SpVec[T] {
	v := NewSpVec[T](rt, x.N)
	for k, i := range x.Ind {
		l := locale.OwnerOf(x.N, rt.G.P, i)
		v.Loc[l].Ind = append(v.Loc[l].Ind, i)
		v.Loc[l].Val = append(v.Loc[l].Val, x.Val[k])
	}
	return v
}

// NNZ returns the total number of stored elements.
func (v *SpVec[T]) NNZ() int {
	total := 0
	for _, lv := range v.Loc {
		total += lv.NNZ()
	}
	return total
}

// Owner returns the locale owning global index i.
func (v *SpVec[T]) Owner(i int) int { return locale.OwnerOf(v.N, v.G.P, i) }

// Get returns the value at global index i.
func (v *SpVec[T]) Get(i int) (T, bool) { return v.Loc[v.Owner(i)].Get(i) }

// ToVec gathers the distributed vector back into one local sparse vector.
func (v *SpVec[T]) ToVec() *sparse.Vec[T] {
	out := sparse.NewVec[T](v.N)
	for _, lv := range v.Loc {
		out.Ind = append(out.Ind, lv.Ind...)
		out.Val = append(out.Val, lv.Val...)
	}
	return out
}

// Equal reports whether two distributed vectors hold the same contents on
// the same layout.
func (v *SpVec[T]) Equal(w *SpVec[T]) bool {
	if v.N != w.N || len(v.Loc) != len(w.Loc) {
		return false
	}
	for l := range v.Loc {
		if !v.Loc[l].Equal(w.Loc[l]) {
			return false
		}
	}
	return true
}

// Validate checks per-locale vectors and ownership of every stored index.
func (v *SpVec[T]) Validate() error {
	if len(v.Loc) != v.G.P {
		return fmt.Errorf("dist: spvec: %d locals for %d locales", len(v.Loc), v.G.P)
	}
	for l, lv := range v.Loc {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("dist: spvec: locale %d: %w", l, err)
		}
		for _, i := range lv.Ind {
			if i < v.Bounds[l] || i >= v.Bounds[l+1] {
				return fmt.Errorf("dist: spvec: locale %d stores index %d outside [%d,%d)",
					l, i, v.Bounds[l], v.Bounds[l+1])
			}
		}
	}
	return nil
}

// SameDistribution reports whether v and w share capacity and bounds (the
// precondition of the paper's restricted Assign).
func (v *SpVec[T]) SameDistribution(w *SpVec[T]) bool {
	if v.N != w.N || len(v.Bounds) != len(w.Bounds) {
		return false
	}
	for i := range v.Bounds {
		if v.Bounds[i] != w.Bounds[i] {
			return false
		}
	}
	return true
}

// DenseVec is a 1-D block-distributed dense vector; locale l stores the
// values of global indices [Bounds[l], Bounds[l+1]).
type DenseVec[T semiring.Number] struct {
	G      *locale.Grid
	N      int
	Bounds []int
	Loc    [][]T
}

// NewDenseVec returns a zero-filled distributed dense vector of length n.
func NewDenseVec[T semiring.Number](rt *locale.Runtime, n int) *DenseVec[T] {
	g := rt.G
	d := &DenseVec[T]{G: g, N: n, Bounds: locale.BlockBounds(n, g.P), Loc: make([][]T, g.P)}
	for l := 0; l < g.P; l++ {
		d.Loc[l] = make([]T, d.Bounds[l+1]-d.Bounds[l])
	}
	return d
}

// DenseVecFromDense distributes a local dense vector.
func DenseVecFromDense[T semiring.Number](rt *locale.Runtime, x *sparse.Dense[T]) *DenseVec[T] {
	d := NewDenseVec[T](rt, x.Len())
	d.Load(x.Data)
	return d
}

// DenseVecOver returns the distributed view of data: locale l's part is
// data's l-th block itself, not a copy, so the vector and data alias.
func DenseVecOver[T semiring.Number](rt *locale.Runtime, data []T) *DenseVec[T] {
	d := &DenseVec[T]{G: rt.G, N: len(data), Bounds: locale.BlockBounds(len(data), rt.G.P), Loc: make([][]T, rt.G.P)}
	for l := range d.Loc {
		d.Loc[l] = data[d.Bounds[l]:d.Bounds[l+1]:d.Bounds[l+1]]
	}
	return d
}

// Load overwrites the vector's contents with x (len(x) must be N), reusing
// the per-locale storage: a round loop redistributes its iterate into one
// DenseVec instead of building a new one every round.
func (d *DenseVec[T]) Load(x []T) {
	for l := range d.Loc {
		copy(d.Loc[l], x[d.Bounds[l]:d.Bounds[l+1]])
	}
}

// Owner returns the locale owning global index i.
func (d *DenseVec[T]) Owner(i int) int { return locale.OwnerOf(d.N, d.G.P, i) }

// Get returns the value at global index i.
func (d *DenseVec[T]) Get(i int) T {
	l := d.Owner(i)
	return d.Loc[l][i-d.Bounds[l]]
}

// Set stores x at global index i.
func (d *DenseVec[T]) Set(i int, x T) {
	l := d.Owner(i)
	d.Loc[l][i-d.Bounds[l]] = x
}

// ToDense gathers the distributed vector into one local dense vector.
func (d *DenseVec[T]) ToDense() *sparse.Dense[T] {
	out := sparse.NewDense[T](d.N)
	for l := range d.Loc {
		copy(out.Data[d.Bounds[l]:d.Bounds[l+1]], d.Loc[l])
	}
	return out
}
