package gb

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// Re-exported algebraic types. See package semiring for the standard
// instances (PlusTimes, MinPlus, LOrLAnd, MinSecond, ...).
type (
	// UnaryOp maps a scalar to a scalar (used by Apply).
	UnaryOp[T any] = semiring.UnaryOp[T]
	// BinaryOp combines two scalars (a GraphBLAS "function").
	BinaryOp[T any] = semiring.BinaryOp[T]
	// Pred is a binary predicate (used by the filtering eWiseMult).
	Pred[T any] = semiring.Pred[T]
	// Monoid is a binary operator with an identity.
	Monoid[T any] = semiring.Monoid[T]
	// Semiring is an additive monoid paired with a multiplicative operator.
	Semiring[T any] = semiring.Semiring[T]
	// Number constrains the element types of matrices and vectors.
	Number = semiring.Number
)

// Standard semiring constructors, re-exported.
func PlusTimes[T Number]() Semiring[T] { return semiring.PlusTimes[T]() }
func MinPlus[T Number]() Semiring[T]   { return semiring.MinPlus[T]() }
func MaxPlus[T Number]() Semiring[T]   { return semiring.MaxPlus[T]() }
func LOrLAnd[T Number]() Semiring[T]   { return semiring.LOrLAnd[T]() }
func MinSecond[T Number]() Semiring[T] { return semiring.MinSecond[T]() }
func PlusMonoid[T Number]() Monoid[T]  { return semiring.PlusMonoid[T]() }
func MinMonoid[T Number]() Monoid[T]   { return semiring.MinMonoid[T]() }
func MaxMonoid[T Number]() Monoid[T]   { return semiring.MaxMonoid[T]() }

// Engine selects the shared-memory SpMSpV pipeline used by the local
// multiplies of every operation run through a Context.
type Engine int

const (
	// EngineMergeSort is the paper's pipeline: SPA accumulation, a parallel
	// merge sort of the discovered indices, then output. This is what the
	// paper's Listings 6–7 describe and what its Fig 7 measures.
	EngineMergeSort Engine = iota + 1
	// EngineRadixSort swaps the merge sort for an LSD radix sort of the
	// index lists — the "less expensive integer sorting algorithm" the
	// paper's discussion expects to win.
	EngineRadixSort
	// EngineBucket is the sort-free bucketed pipeline: the output column
	// space is split into per-worker bucket ranges, entries are scattered to
	// private per-(worker,bucket) runs without atomics, and a parallel
	// ordered bucket merge emits the result already sorted. No global sort,
	// no global atomic fetch-and-add.
	EngineBucket
)

// Short engine names for use as New options: gb.New(gb.Bucket).
const (
	MergeSort = EngineMergeSort
	RadixSort = EngineRadixSort
	Bucket    = EngineBucket
)

// Context fixes a simulated machine configuration: a grid of locales (one
// per node unless colocated), a modeled thread count per locale, and the
// performance-model state.
//
// New contexts default to EngineBucket — the fastest SpMSpV pipeline — for
// their local multiplies and to the automatic communication strategy
// (gb.Auto); pass an Engine or gb.WithStrategy options to New to study the
// paper's original pipelines or pin dispatch axes. All engines and strategy
// choices produce bitwise-identical results.
type Context struct {
	rt *locale.Runtime
	// replicate makes matrices created on this context carry a
	// chained-declustering replica of every block (see WithReplication).
	replicate bool
	// epoch configures the streaming matrices created on this context (see
	// WithEpochPolicy).
	epoch EpochPolicy
	// fusion selects nonblocking (Fused, the default) or eager execution;
	// fq is the pending-op DAG of the nonblocking mode (see fusion.go).
	fusion FusionMode
	fq     *opQueue
}

// clone returns a context sharing this one's grid and data layout but with
// its own simulator state, so With* methods can derive configured contexts
// without mutating the receiver. The modeled clock, traffic counters and open
// phases are copied; matrices and vectors created on the old context remain
// usable from the clone (the distribution is identical). A tracer carried
// across the clone is rebound to the clone's simulator: spans report the
// newest derivation's costs. Deferred operations are materialized first, so
// the clone never shares a pending-op queue with the receiver.
func (c *Context) clone() *Context {
	c.force()
	nc := *c
	nc.fq = nil
	rt := *c.rt
	rt.S = c.rt.S.Clone()
	rt.Insp = c.rt.Insp.Clone()
	if rt.Tr != nil {
		rt.Tr.Bind(rt.S)
	}
	nc.rt = &rt
	return &nc
}

// WithTracer returns a context that reports a span into t for every
// subsequent operation. The receiver is not modified.
func (c *Context) WithTracer(t *Trace) *Context {
	nc := c.clone()
	nc.rt.SetTracer(t)
	return nc
}

// Tracer returns the tracer operations on this context report into, or nil.
func (c *Context) Tracer() *Trace { return c.rt.Tr }

// setEngine selects the shared-memory SpMSpV pipeline of a context under
// construction (New's Engine option, a strategy's PinEngine).
func (c *Context) setEngine(e Engine) error {
	switch e {
	case EngineMergeSort:
		c.rt.ShmEngine = int(core.EngineMergeSort)
	case EngineRadixSort:
		c.rt.ShmEngine = int(core.EngineRadixSort)
	case EngineBucket:
		c.rt.ShmEngine = int(core.EngineBucket)
	default:
		return fmt.Errorf("gb: unknown engine %d", int(e))
	}
	return nil
}

// Locales returns the locale count.
func (c *Context) Locales() int { return c.rt.G.P }

// Threads returns the modeled threads per locale.
func (c *Context) Threads() int { return c.rt.Threads }

// Elapsed returns the modeled execution time accumulated so far, in seconds.
// Pending deferred operations are materialized first, so the reading reflects
// every operation issued before the call.
func (c *Context) Elapsed() float64 {
	c.force()
	return c.rt.S.ElapsedSeconds()
}

// ScratchOutstanding returns how many scratch-arena loans are checked out
// and not yet returned on the arena this context shares with every context
// derived from it: zero whenever no operation is running on any of them.
func (c *Context) ScratchOutstanding() int { return c.rt.Scratch.Outstanding() }

// ResetClock zeroes the modeled time and traffic counters (after
// materializing any pending deferred operations).
func (c *Context) ResetClock() {
	c.force()
	c.rt.S.Reset()
}

// Messages returns the modeled communication message count so far.
func (c *Context) Messages() int64 {
	c.force()
	return c.rt.S.Traffic().Messages
}

// Matrix is a 2-D block-distributed sparse matrix.
type Matrix[T Number] struct {
	ctx *Context
	m   *dist.Mat[T]
	// pin names the streaming epoch the blocks are, when the matrix is a
	// snapshot from StreamingMatrix.Matrix (zero otherwise); IncrementalSSSP
	// checks a previous state against it.
	pin dist.Stamp
}

// Vector is a 1-D block-distributed sparse vector.
type Vector[T Number] struct {
	ctx *Context
	v   *dist.SpVec[T]
}

// DenseVector is a 1-D block-distributed dense vector.
type DenseVector[T Number] struct {
	ctx *Context
	d   *dist.DenseVec[T]
}

// MatrixFromCSR distributes a local CSR matrix over the context's grid. On a
// replicating context (WithReplication) each block also gets a replica on its
// chained locale.
func MatrixFromCSR[T Number](ctx *Context, a *sparse.CSR[T]) *Matrix[T] {
	m := dist.MatFromCSR(ctx.rt, a)
	replicateIfConfigured(ctx, m)
	return &Matrix[T]{ctx: ctx, m: m}
}

// MatrixFromTriplets builds a distributed matrix from coordinate triplets,
// summing duplicates.
func MatrixFromTriplets[T Number](ctx *Context, nrows, ncols int, rows, cols []int, vals []T) (*Matrix[T], error) {
	a, err := sparse.CSRFromTriplets(nrows, ncols, rows, cols, vals)
	if err != nil {
		return nil, err
	}
	return MatrixFromCSR(ctx, a), nil
}

// ErdosRenyi generates a distributed G(n, d/n) random matrix.
func ErdosRenyi[T Number](ctx *Context, n int, d float64, seed int64) *Matrix[T] {
	return MatrixFromCSR(ctx, sparse.ErdosRenyi[T](n, d, seed))
}

// NRows returns the row count.
func (m *Matrix[T]) NRows() int { return m.m.NRows }

// NCols returns the column count.
func (m *Matrix[T]) NCols() int { return m.m.NCols }

// NNZ returns the stored-element count. Like every read, it materializes the
// context's pending deferred operations (a queued MxM, say) first.
func (m *Matrix[T]) NNZ() int {
	m.ctx.forceObserving(m.m)
	return m.m.NNZ()
}

// Get returns element (i, j), materializing pending deferred operations
// first.
func (m *Matrix[T]) Get(i, j int) (T, bool) {
	m.ctx.forceObserving(m.m)
	return m.m.Get(i, j)
}

// ToCSR gathers the distributed matrix into one local CSR (a
// materialization point: pending deferred operations run first).
func (m *Matrix[T]) ToCSR() (*sparse.CSR[T], error) {
	m.ctx.forceObserving(m.m)
	return m.m.ToCSR()
}

// NewVector returns an empty distributed sparse vector of capacity n.
func NewVector[T Number](ctx *Context, n int) *Vector[T] {
	return &Vector[T]{ctx: ctx, v: dist.NewSpVec[T](ctx.rt, n)}
}

// VectorFromSlices builds a distributed sparse vector from index/value pairs.
func VectorFromSlices[T Number](ctx *Context, n int, ind []int, val []T) (*Vector[T], error) {
	lv, err := sparse.VecOf(n, ind, val)
	if err != nil {
		return nil, err
	}
	return &Vector[T]{ctx: ctx, v: dist.SpVecFromVec(ctx.rt, lv)}, nil
}

// RandomVector generates a distributed sparse vector with exactly nnz stored
// elements at distinct random positions.
func RandomVector[T Number](ctx *Context, n, nnz int, seed int64) *Vector[T] {
	return &Vector[T]{ctx: ctx, v: dist.SpVecFromVec(ctx.rt, sparse.RandomVec[T](n, nnz, seed))}
}

// NNZ returns the stored-element count. Like every read, it materializes the
// context's pending deferred operations first.
func (v *Vector[T]) NNZ() int {
	v.ctx.forceObserving(v.v)
	return v.v.NNZ()
}

// Size returns the logical length of the vector (the GraphBLAS "size": the
// index domain, independent of how many elements are stored).
func (v *Vector[T]) Size() int { return v.v.N }

// Get returns the value at index i (materializing pending operations first).
func (v *Vector[T]) Get(i int) (T, bool) {
	v.ctx.forceObserving(v.v)
	return v.v.Get(i)
}

// Entries gathers the vector to (sorted) index/value slices (materializing
// pending operations first).
func (v *Vector[T]) Entries() ([]int, []T) {
	v.ctx.forceObserving(v.v)
	lv := v.v.ToVec()
	return lv.Ind, lv.Val
}

// NewDenseVector returns a zero-filled distributed dense vector.
func NewDenseVector[T Number](ctx *Context, n int) *DenseVector[T] {
	return &DenseVector[T]{ctx: ctx, d: dist.NewDenseVec[T](ctx.rt, n)}
}

// DenseVectorFromSlice distributes a dense value slice.
func DenseVectorFromSlice[T Number](ctx *Context, data []T) *DenseVector[T] {
	return &DenseVector[T]{ctx: ctx, d: dist.DenseVecFromDense(ctx.rt, &sparse.Dense[T]{Data: data})}
}

// Get returns the value at index i (materializing pending operations first).
func (d *DenseVector[T]) Get(i int) T {
	d.ctx.forceObserving(d.d)
	return d.d.Get(i)
}

// Set stores x at index i. Pending deferred operations that read this vector
// are materialized first, so they observe the pre-Set value as they would
// have eagerly.
func (d *DenseVector[T]) Set(i int, x T) {
	d.ctx.forceObserving(d.d)
	d.d.Set(i, x)
}

// --- The GraphBLAS operations -------------------------------------------------

// Apply applies op to every stored element of v, using the optimized
// per-locale implementation (the paper's Apply2). ApplyNaive is the
// fine-grained global iteration (Apply1) kept for comparison.
//
// On a Fused context the call defers; an EWiseMult of the applied vector then
// executes as one apply∘ewisemult region (the unary op runs inside the
// predicate scan, one pass over the data).
func Apply[T Number](v *Vector[T], op UnaryOp[T]) {
	c := v.ctx
	if c.lazy() {
		q := c.queue()
		rt, xv := c.rt, v.v
		id := q.id(xv)
		q.nodes = append(q.nodes, &qnode{
			desc:    core.OpDesc{Op: core.OpApply, In0: id, Out: id},
			payload: applyP[T]{v: xv, op: op},
			run:     func() error { core.Apply2(rt, xv, op); return nil },
		})
		return
	}
	core.Apply2(c.rt, v.v, op)
}

// ApplyNaive is the paper's Apply1: a global data-parallel forall that pays
// fine-grained communication on multiple locales.
func ApplyNaive[T Number](v *Vector[T], op UnaryOp[T]) {
	v.ctx.force()
	core.Apply1(v.ctx.rt, v.v, op)
}

// Assign copies src into dst (matching distributions required), using the
// optimized per-locale implementation (Assign2). AssignNaive is Assign1.
//
// On a Fused context the call defers; preceded by the SpMSpV/EWiseMult chain
// of a frontier round (or a masked SpMSpV) producing src, the whole chain
// executes as one fused region that installs straight into dst.
func Assign[T Number](dst, src *Vector[T]) error {
	c := dst.ctx
	c.sync(src.ctx)
	if c.lazy() && dst.v.N == src.v.N {
		q := c.queue()
		rt, d, s := c.rt, dst.v, src.v
		q.nodes = append(q.nodes, &qnode{
			desc:    core.OpDesc{Op: core.OpAssign, In0: q.id(s), Out: q.id(d)},
			payload: assignP[T]{dst: d, src: s},
			run:     func() error { return core.Assign2(rt, d, s) },
		})
		return nil
	}
	return core.Assign2(c.rt, dst.v, src.v)
}

// AssignNaive is the paper's Assign1: domain rebuild plus per-element
// logarithmic indexed access.
func AssignNaive[T Number](dst, src *Vector[T]) error {
	dst.ctx.force()
	dst.ctx.sync(src.ctx)
	return core.Assign1(dst.ctx.rt, dst.v, src.v)
}

// EWiseMult returns the entries of x whose positions satisfy pred against
// the dense vector y (the paper's sparse-dense specialization).
//
// On a Fused context the call defers (dimensions are still validated
// immediately); see Apply and Assign for the chains it fuses into.
func EWiseMult[T Number](x *Vector[T], y *DenseVector[T], pred Pred[T]) (*Vector[T], error) {
	if x.v.N != y.d.N {
		return nil, fmt.Errorf("gb: EWiseMult: vector capacities %d and %d differ: %w", x.v.N, y.d.N, ErrDimensionMismatch)
	}
	c := x.ctx
	c.sync(y.ctx)
	if c.lazy() {
		q := c.queue()
		z := &Vector[T]{ctx: c, v: dist.NewSpVec[T](c.rt, x.v.N)}
		rt, xv, yd, zv := c.rt, x.v, y.d, z.v
		q.nodes = append(q.nodes, &qnode{
			desc:    core.OpDesc{Op: core.OpEWiseMult, In0: q.id(xv), In1: q.id(yd), Out: q.id(zv)},
			payload: ewiseP[T]{x: xv, y: yd, pred: pred, out: zv},
			run: func() error {
				res, err := core.EWiseMultSD(rt, xv, yd, pred)
				if err != nil {
					return err
				}
				*zv = *res
				return nil
			},
			fuseApply: func(prev *qnode) (bool, error) {
				ap, ok := prev.payload.(applyP[T])
				if !ok || ap.v != xv {
					return false, nil
				}
				return true, core.FusedApplyEWiseMult(rt, xv, ap.op, yd, pred, zv)
			},
		})
		return z, nil
	}
	z, err := core.EWiseMultSD(c.rt, x.v, y.d, pred)
	if err != nil {
		return nil, err
	}
	return &Vector[T]{ctx: c, v: z}, nil
}

// SpMSpV multiplies sparse vector x with matrix a (y ← xA), returning the
// pattern of reached columns valued with their discovering row ids (the
// paper's formulation; exactly BFS parents).
//
// On a Fused context the call defers; the canonical frontier chain
// SpMSpV → EWiseMult → Assign executes as one spmspv+frontier region with a
// single gather/scatter plan.
func SpMSpV[T Number](a *Matrix[T], x *Vector[T]) (*Vector[int64], error) {
	if x.v.N != a.m.NRows {
		return nil, fmt.Errorf("gb: SpMSpV: vector capacity %d != matrix rows %d: %w", x.v.N, a.m.NRows, ErrDimensionMismatch)
	}
	c := a.ctx
	c.sync(x.ctx)
	if c.lazy() {
		q := c.queue()
		out := &Vector[int64]{ctx: c, v: dist.NewSpVec[int64](c.rt, a.m.NCols)}
		rt, am, xv, ov := c.rt, a.m, x.v, out.v
		q.nodes = append(q.nodes, &qnode{
			desc: core.OpDesc{Op: core.OpSpMSpV, In0: q.id(xv), Out: q.id(ov)},
			run: func() error {
				y, _, err := core.SpMSpVDistAuto(rt, am, xv)
				if err != nil {
					return err
				}
				*ov = *y
				return nil
			},
			filterInto: func(pred Pred[int64], mask *dist.DenseVec[int64], dst *dist.SpVec[int64]) error {
				_, err := core.FusedSpMSpVFilterAssign(rt, am, xv, mask, pred, dst)
				return err
			},
		})
		return out, nil
	}
	y, _, err := core.SpMSpVDistAuto(c.rt, a.m, x.v)
	if err != nil {
		return nil, err
	}
	return &Vector[int64]{ctx: c, v: y}, nil
}

// SpMSpVSemiring multiplies over an arbitrary semiring:
// y[j] = ⊕_i x[i] ⊗ A[i,j].
func SpMSpVSemiring[T Number](a *Matrix[T], x *Vector[T], sr Semiring[T]) (*Vector[T], error) {
	if x.v.N != a.m.NRows {
		return nil, fmt.Errorf("gb: SpMSpVSemiring: vector capacity %d != matrix rows %d: %w", x.v.N, a.m.NRows, ErrDimensionMismatch)
	}
	a.ctx.force()
	a.ctx.sync(x.ctx)
	y, _ := core.SpMSpVDistSemiring(a.ctx.rt, a.m, x.v, sr)
	return &Vector[T]{ctx: a.ctx, v: y}, nil
}

// Reduce folds all stored values of v with a monoid (a materialization
// point: pending deferred operations run first): a local fold per locale and
// a reduction tree over the partial results.
func Reduce[T Number](v *Vector[T], m Monoid[T]) T {
	v.ctx.forceObserving(v.v)
	// The fold is complete before the tree is charged, so the value stands
	// even when a fault plan fails one of the tree's transfers.
	r, _ := core.ReduceDist(v.ctx.rt, v.v, m)
	return r
}

// --- Algorithms ----------------------------------------------------------------

// BFSResult re-exports the BFS output type.
type BFSResult = algorithms.BFSResult

// checkGraphSource validates the common algorithm preconditions: a square
// adjacency matrix and a source vertex inside it.
func checkGraphSource[T Number](op string, a *Matrix[T], source int) error {
	if a.m.NRows != a.m.NCols {
		return fmt.Errorf("gb: %s: adjacency matrix is %dx%d, want square: %w", op, a.m.NRows, a.m.NCols, ErrDimensionMismatch)
	}
	if source < 0 || source >= a.m.NRows {
		return fmt.Errorf("gb: %s: source vertex %d outside graph of %d vertices: %w", op, source, a.m.NRows, ErrIndexOutOfRange)
	}
	return nil
}

// BFS runs distributed breadth-first search from source over the adjacency
// matrix, composed from SpMSpV, eWiseMult and Assign.
func BFS[T Number](ctx *Context, a *Matrix[T], source int) (*BFSResult, error) {
	if err := checkGraphSource("BFS", a, source); err != nil {
		return nil, err
	}
	ctx.force()
	ctx.sync(a.ctx)
	return algorithms.BFSDist(ctx.rt, a.m, source)
}

// SSSP runs single-source shortest paths (Bellman–Ford over the (min,+)
// semiring) on the distributed graph: each round is one distributed SpMV
// plus an all-reduce of the convergence flag.
func SSSP[T Number](a *Matrix[T], source int) ([]T, int, error) {
	if err := checkGraphSource("SSSP", a, source); err != nil {
		return nil, 0, err
	}
	a.ctx.force()
	return algorithms.SSSPDist(a.ctx.rt, a.m, source)
}

// ConnectedComponents labels the vertices of an undirected graph by minimum
// reachable vertex id and returns the label vector and component count.
func ConnectedComponents[T Number](a *Matrix[T]) ([]int64, int, error) {
	a.ctx.force()
	return algorithms.CCDist(a.ctx.rt, a.m)
}

// PageRank computes PageRank with damping d to tolerance tol.
func PageRank[T Number](a *Matrix[T], d, tol float64, maxIter int) ([]float64, int, error) {
	a.ctx.force()
	return algorithms.PageRankDist(a.ctx.rt, a.m, d, tol, maxIter)
}

// TriangleCount counts triangles of a simple undirected graph via the masked
// SpGEMM formulation sum(A .* (A·A)) / 6, computed entirely on the
// distributed blocks with the sparse SUMMA — the matrix is never gathered.
func TriangleCount[T Number](a *Matrix[T]) (int64, error) {
	a.ctx.force()
	return algorithms.TriangleCountDist(a.ctx.rt, a.m)
}

// KTruss returns the k-truss of an undirected graph — the maximal subgraph
// in which every edge closes at least k−2 triangles — as a matrix of edge
// supports, plus the number of prune rounds. Each round is one distributed
// masked SUMMA product.
func KTruss[T Number](a *Matrix[T], k int) (*Matrix[int64], int, error) {
	a.ctx.force()
	tm, rounds, err := algorithms.KTrussDist(a.ctx.rt, a.m, k)
	if err != nil {
		return nil, 0, err
	}
	return &Matrix[int64]{ctx: a.ctx, m: tm}, rounds, nil
}

// MultiSourceBFS runs BFS from every source at once as SpGEMM over the
// boolean semiring: the frontier is a matrix with one row per source.
// Returns levels[k][v] = depth of vertex v from sources[k] (−1 when
// unreached) and the round count.
func MultiSourceBFS[T Number](a *Matrix[T], sources []int) ([][]int64, int, error) {
	if len(sources) == 0 {
		return nil, 0, fmt.Errorf("gb: MultiSourceBFS: no sources: %w", ErrIndexOutOfRange)
	}
	for _, s := range sources {
		if err := checkGraphSource("MultiSourceBFS", a, s); err != nil {
			return nil, 0, err
		}
	}
	a.ctx.force()
	return algorithms.MSBFSDist(a.ctx.rt, a.m, sources)
}

// ApplyMatrix applies op to every stored element of the matrix (per-locale).
func ApplyMatrix[T Number](a *Matrix[T], op UnaryOp[T]) {
	a.ctx.force() // pending ops read the matrix; they observe pre-Apply values
	core.ApplyMat2(a.ctx.rt, a.m, op)
}

// EWiseAdd adds two identically distributed sparse vectors over the union of
// their patterns.
func EWiseAdd[T Number](x, y *Vector[T], op BinaryOp[T]) (*Vector[T], error) {
	if x.v.N != y.v.N {
		return nil, fmt.Errorf("gb: EWiseAdd: vector capacities %d and %d differ: %w", x.v.N, y.v.N, ErrDimensionMismatch)
	}
	x.ctx.force()
	x.ctx.sync(y.ctx)
	z, err := core.EWiseAddDist(x.ctx.rt, x.v, y.v, op)
	if err != nil {
		return nil, err
	}
	return &Vector[T]{ctx: x.ctx, v: z}, nil
}

// EWiseMultSparse intersects two identically distributed sparse vectors.
func EWiseMultSparse[T Number](x, y *Vector[T], op BinaryOp[T]) (*Vector[T], error) {
	if x.v.N != y.v.N {
		return nil, fmt.Errorf("gb: EWiseMultSparse: vector capacities %d and %d differ: %w", x.v.N, y.v.N, ErrDimensionMismatch)
	}
	x.ctx.force()
	x.ctx.sync(y.ctx)
	z, err := core.EWiseMultDistSS(x.ctx.rt, x.v, y.v, op)
	if err != nil {
		return nil, err
	}
	return &Vector[T]{ctx: x.ctx, v: z}, nil
}

// SpMV computes the dense product y = xA over a semiring with the
// distributed 2-D algorithm (row-team all-gather, local multiply, column-team
// reduce). On a Fused context the call defers (dimensions are still validated
// immediately); collective errors only occur under fault plans, which always
// execute eagerly, so deferral never hides one.
func SpMV[T Number](a *Matrix[T], x *DenseVector[T], sr Semiring[T]) (*DenseVector[T], error) {
	if x.d.N != a.m.NRows {
		return nil, fmt.Errorf("gb: SpMV: vector capacity %d != matrix rows %d: %w", x.d.N, a.m.NRows, ErrDimensionMismatch)
	}
	c := a.ctx
	c.sync(x.ctx)
	if c.lazy() {
		q := c.queue()
		out := &DenseVector[T]{ctx: c, d: dist.NewDenseVec[T](c.rt, a.m.NCols)}
		rt, am, xd, od := c.rt, a.m, x.d, out.d
		q.nodes = append(q.nodes, &qnode{
			desc: core.OpDesc{Op: core.OpSpMV, In0: q.id(xd), Out: q.id(od)},
			run: func() error {
				y, err := core.SpMVDist(rt, am, xd, sr)
				if err != nil {
					return err
				}
				*od = *y
				return nil
			},
		})
		return out, nil
	}
	y, err := core.SpMVDist(c.rt, a.m, x.d, sr)
	if err != nil {
		return nil, err
	}
	return &DenseVector[T]{ctx: c, d: y}, nil
}

// Transpose returns Aᵀ distributed over the transposed grid; the returned
// matrix carries a context over that grid.
func Transpose[T Number](a *Matrix[T]) (*Matrix[T], error) {
	a.ctx.force()
	at, trt, err := core.TransposeDist(a.ctx.rt, a.m)
	if err != nil {
		return nil, err
	}
	trt.Fusion = a.ctx.rt.Fusion
	trt.Insp = a.ctx.rt.Insp.Clone()
	return &Matrix[T]{ctx: &Context{rt: trt, fusion: a.ctx.fusion}, m: at}, nil
}

// BFSDirectionOptimizing runs the push/pull BFS on the context's grid:
// each round either pushes, as BFS does, or pulls, every unvisited vertex
// scanning its in-neighbours for a frontier member. alpha > 0 replays the
// legacy switch rule (pull while nnz(frontier) > n/alpha); alpha <= 0 means
// Auto — the context's inspector picks the direction per round from modeled
// push/pull work, honoring any strategy pin (gb.ForcePush / gb.ForcePull) or
// gb.PullThreshold. Its rounds are charged, traced, canceled and recovered
// like BFS's.
func BFSDirectionOptimizing[T Number](a *Matrix[T], source, alpha int) (*BFSResult, error) {
	if err := checkGraphSource("BFSDirectionOptimizing", a, source); err != nil {
		return nil, err
	}
	a.ctx.force()
	return algorithms.BFSDirectionOptimizing(a.ctx.rt, a.m, source, alpha)
}

// BetweennessCentrality computes Brandes betweenness from the given source
// sample (all vertices = exact).
func BetweennessCentrality[T Number](a *Matrix[T], sources []int) ([]float64, error) {
	a.ctx.force()
	csr, err := a.m.ToCSR()
	if err != nil {
		return nil, err
	}
	return algorithms.BetweennessCentrality(csr, sources)
}

// AssignIndexed performs the general GraphBLAS assign dst(indices) = src:
// position indices[k] receives src[k] when stored and is cleared when absent;
// untargeted positions are untouched. Updates are routed to owner locales in
// batches.
func AssignIndexed[T Number](dst *Vector[T], indices []int, src *Vector[T]) error {
	if src.v.N != len(indices) {
		return fmt.Errorf("gb: AssignIndexed: source capacity %d != %d indices: %w", src.v.N, len(indices), ErrDimensionMismatch)
	}
	for _, i := range indices {
		if i < 0 || i >= dst.v.N {
			return fmt.Errorf("gb: AssignIndexed: index %d outside destination of capacity %d: %w", i, dst.v.N, ErrIndexOutOfRange)
		}
	}
	dst.ctx.force()
	dst.ctx.sync(src.ctx)
	return core.AssignIndexedDist(dst.ctx.rt, dst.v, indices, src.v)
}

// Extract returns the subvector v(indices) as a new distributed vector of
// capacity len(indices).
func Extract[T Number](v *Vector[T], indices []int) (*Vector[T], error) {
	for _, i := range indices {
		if i < 0 || i >= v.v.N {
			return nil, fmt.Errorf("gb: Extract: index %d outside vector of capacity %d: %w", i, v.v.N, ErrIndexOutOfRange)
		}
	}
	v.ctx.force()
	out, err := core.ExtractDist(v.ctx.rt, v.v, indices)
	if err != nil {
		return nil, err
	}
	return &Vector[T]{ctx: v.ctx, v: out}, nil
}

// Select returns the entries of v whose (index, value) satisfy pred.
func Select[T Number](v *Vector[T], pred func(index int, value T) bool) *Vector[T] {
	v.ctx.force()
	out := core.SelectDist(v.ctx.rt, v.v, core.SelectPred[T](pred))
	return &Vector[T]{ctx: v.ctx, v: out}
}

// ReduceRows reduces each matrix row with a monoid, returning a distributed
// sparse vector with one entry per nonempty row.
func ReduceRows[T Number](a *Matrix[T], m Monoid[T]) *Vector[T] {
	a.ctx.force()
	out := core.ReduceRowsDist(a.ctx.rt, a.m, m)
	return &Vector[T]{ctx: a.ctx, v: out}
}

// MxM multiplies two distributed matrices over a semiring with the blocked
// sparse SUMMA algorithm. Any locale grid works — square grids run the
// classic √P broadcast stages, rectangular grids sweep the merged band
// boundaries — and the strategy place axis picks between per-stage
// broadcasts and panel prefetch (see WithStrategy).
//
// On a Fused context the call defers (dimensions are still validated
// immediately): the product runs when a result is observed — NNZ, Get,
// ToCSR, an algorithm call, or Wait.
func MxM[T Number](a, b *Matrix[T], sr Semiring[T]) (*Matrix[T], error) {
	if a.m.NCols != b.m.NRows {
		return nil, fmt.Errorf("gb: MxM: inner dimensions %d and %d differ: %w", a.m.NCols, b.m.NRows, ErrDimensionMismatch)
	}
	c := a.ctx
	c.sync(b.ctx)
	if c.lazy() {
		q := c.queue()
		// The output shell carries the product's distribution up front so
		// NRows/NCols work pre-materialization; the blocks start empty and
		// are replaced wholesale when the queue drains.
		g := c.rt.G
		om := &dist.Mat[T]{
			G:        g,
			NRows:    a.m.NRows,
			NCols:    b.m.NCols,
			RowBands: append([]int(nil), a.m.RowBands...),
			ColBands: append([]int(nil), b.m.ColBands...),
			Blocks:   make([]*sparse.CSR[T], g.P),
		}
		for l := 0; l < g.P; l++ {
			r, cc := g.Coords(l)
			om.Blocks[l] = sparse.NewCSR[T](
				om.RowBands[r+1]-om.RowBands[r], om.ColBands[cc+1]-om.ColBands[cc])
		}
		out := &Matrix[T]{ctx: c, m: om}
		rt, am, bm := c.rt, a.m, b.m
		q.nodes = append(q.nodes, &qnode{
			desc: core.OpDesc{Op: core.OpMxM, In0: q.id(am), In1: q.id(bm), Out: q.id(om)},
			run: func() error {
				y, err := core.SpGEMMDist(rt, am, bm, sr)
				if err != nil {
					return err
				}
				*om = *y
				return nil
			},
		})
		return out, nil
	}
	y, err := core.SpGEMMDist(c.rt, a.m, b.m, sr)
	if err != nil {
		return nil, err
	}
	return &Matrix[T]{ctx: c, m: y}, nil
}

// MxMMasked computes (a·b) .* mask — the product restricted to the mask's
// pattern, the formulation triangle counting and k-truss build on. Always
// eager: the mask makes the result immediately observable anyway.
func MxMMasked[T Number](a, b, mask *Matrix[T], sr Semiring[T]) (*Matrix[T], error) {
	if a.m.NCols != b.m.NRows {
		return nil, fmt.Errorf("gb: MxMMasked: inner dimensions %d and %d differ: %w", a.m.NCols, b.m.NRows, ErrDimensionMismatch)
	}
	if mask.m.NRows != a.m.NRows || mask.m.NCols != b.m.NCols {
		return nil, fmt.Errorf("gb: MxMMasked: mask is %dx%d, want %dx%d: %w",
			mask.m.NRows, mask.m.NCols, a.m.NRows, b.m.NCols, ErrDimensionMismatch)
	}
	c := a.ctx
	c.force()
	c.sync(b.ctx)
	c.sync(mask.ctx)
	y, err := core.SpGEMMDistMasked(c.rt, a.m, b.m, mask.m, sr)
	if err != nil {
		return nil, err
	}
	return &Matrix[T]{ctx: c, m: y}, nil
}

// BFSMasked runs the distributed BFS with the visited mask fused into the
// multiplication (the paper's future-work distributed mask): suppressed
// vertices never cross the network during the scatter.
func BFSMasked[T Number](ctx *Context, a *Matrix[T], source int) (*BFSResult, error) {
	if err := checkGraphSource("BFSMasked", a, source); err != nil {
		return nil, err
	}
	ctx.force()
	ctx.sync(a.ctx)
	return algorithms.BFSDistMasked(ctx.rt, a.m, source)
}
