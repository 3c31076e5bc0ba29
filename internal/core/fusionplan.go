package core

// Fusion planning for the nonblocking (lazy) execution layer.
//
// The public gb surface defers its operations into a small typed DAG (a
// linear op queue with operand identities) instead of executing eagerly; at
// materialization time PlanFusion pattern-matches chains of adjacent ops into
// fused regions, each executed by one kernel from spmspv_fused.go. The
// GraphBLAS spec explicitly permits this deferral, and the recipes below are
// exactly the chains every frontier algorithm issues per round — fusing them
// eliminates the intermediate vectors and runs one gather/scatter plan per
// region instead of one per op.
//
// The planner itself is pure and allocation-free in steady state: descriptors
// go in, regions come out of a caller-provided buffer. Identity is by operand
// id (an int32 assigned by the op queue); id 0 means "no operand".

// FusedOp identifies the kind of a deferred operation.
type FusedOp int32

const (
	// opNone is the zero descriptor.
	opNone FusedOp = iota
	// OpApply is an in-place unary map over a sparse vector (In0 == Out).
	OpApply
	// OpEWiseMult is the sparse-dense filtering product (In0 sparse, In1
	// dense mask, Out fresh).
	OpEWiseMult
	// OpAssign copies In0 into Out.
	OpAssign
	// OpSpMSpV is the distributed sparse matrix - sparse vector product
	// (In0 input vector, Out fresh).
	OpSpMSpV
	// OpSpMSpVMasked is SpMSpV with a complemented dense mask (In1) fused
	// into the multiplication.
	OpSpMSpVMasked
	// OpSpMV is the distributed dense product.
	OpSpMV
	// OpReduce folds a vector to a scalar (always a materialization point).
	OpReduce
	// OpMxM is the distributed matrix-matrix product (sparse SUMMA). It
	// never fuses with its neighbors — the planner leaves it a single-op
	// region — but deferring it lets MxM chains queue behind vector ops
	// without forcing the whole DAG.
	OpMxM
)

// Recipe names a fusion pattern the materialization pass recognizes. The
// String form is the tag fused-region trace spans carry.
type Recipe int32

const (
	// RecipeNone marks a single-op region executed by the op's own kernel.
	RecipeNone Recipe = iota
	// RecipeApplyEWiseMult fuses Apply(x) ; z = EWiseMult(x, m): the unary op
	// is applied during the predicate scan, one pass, one spawn/barrier.
	RecipeApplyEWiseMult
	// RecipeSpMSpVMaskedAssign fuses y = SpMSpVMasked(A, x, m) ; Assign(dst, y):
	// the denseToSparse step writes straight into dst, so y is never built and
	// the Assign's spawn/barrier and domain rebuild disappear.
	RecipeSpMSpVMaskedAssign
	// RecipeSpMSpVFrontier fuses the canonical BFS round chain
	// y = SpMSpV(A, x) ; f = EWiseMult(y, m) ; Assign(dst, f): one region with
	// a single gather/scatter plan; the filter runs during denseToSparse and
	// survivors land directly in dst.
	RecipeSpMSpVFrontier
	// RecipeSpMVUpdate is the algorithm-level fusion of a distributed SpMV
	// with the per-element update that consumes it (SSSP's min, PageRank's
	// rank update, CC's label min): the result vector is never materialized.
	// It is not produced by PlanFusion — the algorithms select it directly.
	RecipeSpMVUpdate
)

// String returns the recipe tag carried by fused-region trace spans.
func (r Recipe) String() string {
	switch r {
	case RecipeApplyEWiseMult:
		return "apply∘ewisemult"
	case RecipeSpMSpVMaskedAssign:
		return "spmspv.masked+assign"
	case RecipeSpMSpVFrontier:
		return "spmspv+frontier"
	case RecipeSpMVUpdate:
		return "spmv+update"
	default:
		return "none"
	}
}

// OpDesc describes one deferred operation for the planner: the op kind and
// the identities of its operands (0 = absent). Identity is assigned by the
// op queue; two descriptors naming the same id touch the same container.
type OpDesc struct {
	Op            FusedOp
	In0, In1, Out int32
}

// Region is a planned execution unit: ops[Lo:Hi] executed under Recipe
// (RecipeNone runs the single op at Lo unfused).
type Region struct {
	Recipe Recipe
	Lo, Hi int
}

// PlanFusion greedily tiles the op list into fused regions, appending into
// regions[:0] (steady-state calls with sufficient capacity allocate nothing).
// Matching is left to right and non-overlapping; unmatched ops become
// single-op RecipeNone regions.
//
// A chain only fuses when its intermediates are dead — not referenced by any
// later op in the queue — because a fused region never materializes them.
func PlanFusion(ops []OpDesc, regions []Region) []Region {
	regions = regions[:0]
	for i := 0; i < len(ops); {
		r, n := matchAt(ops, i)
		regions = append(regions, Region{Recipe: r, Lo: i, Hi: i + n})
		i += n
	}
	return regions
}

// matchAt tries each recipe at position i, returning the recipe and the
// number of ops it consumes (1 for no match).
func matchAt(ops []OpDesc, i int) (Recipe, int) {
	// Apply ; EWiseMult on the applied vector. Apply mutates in place either
	// way, so no deadness requirement: the fused kernel preserves it.
	if i+1 < len(ops) &&
		ops[i].Op == OpApply && ops[i+1].Op == OpEWiseMult &&
		ops[i].Out != 0 && ops[i+1].In0 == ops[i].Out {
		return RecipeApplyEWiseMult, 2
	}
	// SpMSpV ; EWiseMult(y, mask) ; Assign(dst, f) with y and f dead after.
	if i+2 < len(ops) &&
		ops[i].Op == OpSpMSpV && ops[i+1].Op == OpEWiseMult && ops[i+2].Op == OpAssign &&
		ops[i].Out != 0 && ops[i+1].In0 == ops[i].Out &&
		ops[i+1].Out != 0 && ops[i+2].In0 == ops[i+1].Out &&
		!liveAfter(ops, i+3, ops[i].Out) && !liveAfter(ops, i+3, ops[i+1].Out) {
		return RecipeSpMSpVFrontier, 3
	}
	// SpMSpVMasked ; Assign(dst, y) with y dead after.
	if i+1 < len(ops) &&
		ops[i].Op == OpSpMSpVMasked && ops[i+1].Op == OpAssign &&
		ops[i].Out != 0 && ops[i+1].In0 == ops[i].Out &&
		!liveAfter(ops, i+2, ops[i].Out) {
		return RecipeSpMSpVMaskedAssign, 2
	}
	return RecipeNone, 1
}

// liveAfter reports whether id is referenced by any op in ops[from:].
func liveAfter(ops []OpDesc, from int, id int32) bool {
	if id == 0 {
		return true // "no operand" can never be proven dead
	}
	for k := from; k < len(ops); k++ {
		if ops[k].In0 == id || ops[k].In1 == id || ops[k].Out == id {
			return true
		}
	}
	return false
}
