package core

import (
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
)

// Apply1 applies op to every stored element of the distributed sparse vector
// x using a global data-parallel forall over the distributed array — the
// idiomatic Chapel style of the paper's Listing 2.
//
// On one locale this performs well: the iteration is local and data parallel.
// On multiple locales, a forall over a block-distributed *sparse* array does
// not (yet) run each iteration on the owning locale, so every remote element
// costs a fine-grained get and put issued from the leader locale — the poor
// distributed performance of Fig 1 (right).
func Apply1[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], op semiring.UnaryOp[T]) {
	defer rt.Span("Apply1").End()
	totalItems := int64(0)
	remoteItems := int64(0)
	for l, lv := range x.Loc {
		n := lv.NNZ()
		totalItems += int64(n)
		if l != 0 {
			remoteItems += int64(n)
		}
		// Real work: the semantics of Apply are the same in both variants.
		applyLocal(rt, lv.Val, op)
	}
	// Model: the leader locale drives every iteration with its threads...
	rt.S.Compute(0, rt.Threads, sim.Kernel{
		Name:         "apply1",
		Items:        totalItems,
		CPUPerItem:   costApplyCPU,
		BytesPerItem: costApplyBytes,
	})
	if remoteItems > 0 {
		// ...but each non-local element is a blocking remote get + put; the
		// serialized leader iteration over the remote sparse blocks admits no
		// overlap (the distributed-sparse leader/follower iterators are not
		// implemented, which is exactly the paper's finding).
		o := rt.FineLatencyOpts(0, 1, 2*remoteItems, bytesPerEntry, 1)
		o.Overlap = 1
		rt.S.FineGrained(0, o)
	}
}

// Apply2 applies op to every stored element of x in the explicit SPMD style
// of the paper's Listing 3: one task per locale (coforall + on), each
// iterating its local element array with a local forall. No communication.
// The coforall is open-coded (spawn charge + bodies + barrier) so that
// steady-state calls allocate nothing.
func Apply2[T semiring.Number](rt *locale.Runtime, x *dist.SpVec[T], op semiring.UnaryOp[T]) {
	defer rt.Span("Apply2").End()
	rt.S.CoforallSpawn()
	for l := 0; l < rt.G.P; l++ {
		lv := x.Loc[l]
		applyLocal(rt, lv.Val, op)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "apply2",
			Items:        int64(lv.NNZ()),
			CPUPerItem:   costApplyCPU,
			BytesPerItem: costApplyBytes,
		})
	}
	rt.S.Barrier()
}

// applyLocal updates vals in place with op, using the runtime's real worker
// pool. The single-worker path is a plain loop — creating the parallel
// closure would allocate even though the work is sequential.
func applyLocal[T semiring.Number](rt *locale.Runtime, vals []T, op semiring.UnaryOp[T]) {
	if rt.RealWorkers <= 1 {
		for i := range vals {
			vals[i] = op(vals[i])
		}
		return
	}
	rt.ParFor(len(vals), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = op(vals[i])
		}
	})
}

// ApplyMat2 is Apply2 for a 2-D block-distributed matrix.
func ApplyMat2[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], op semiring.UnaryOp[T]) {
	defer rt.Span("ApplyMat2").End()
	rt.Coforall(func(l int) {
		b := a.Blocks[l]
		applyLocal(rt, b.Val, op)
		rt.S.Compute(l, rt.Threads, sim.Kernel{
			Name:         "applymat2",
			Items:        int64(b.NNZ()),
			CPUPerItem:   costApplyCPU,
			BytesPerItem: costApplyBytes,
		})
	})
}
