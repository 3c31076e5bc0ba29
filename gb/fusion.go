package gb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
)

// FusionMode selects between the nonblocking (lazy) execution the GraphBLAS
// spec permits and the eager per-op execution of earlier versions.
//
// Under Fused — the default — the deferrable operations (Apply, EWiseMult,
// Assign, SpMSpV, SpMSpVMasked, SpMV) enqueue a descriptor instead of
// executing, and the queue materializes when a result is observed: any read
// of a vector (NNZ, Get, Entries, Set), a Reduce, an algorithm call, a
// non-deferrable operation, a context derivation, or an explicit Wait. At
// materialization the planner (internal/core.PlanFusion) tiles the queue into
// regions and runs each recognized chain as one fused kernel: intermediates
// are never built, and each region plans its gather/scatter collectives once.
// Results are bitwise identical to Eager.
//
// Contexts carrying a fault plan always execute eagerly, so injected faults
// surface at the call that hit them.
type FusionMode int

const (
	// Fused defers operations and fuses recognized chains (the default).
	Fused FusionMode = iota
	// Eager executes every operation immediately, one kernel per call — the
	// paper-fidelity mode and the baseline of the ablfuse ablation.
	Eager
)

// apply makes a FusionMode usable directly as a New option: gb.New(gb.Eager).
func (m FusionMode) apply(o *options) error {
	switch m {
	case Fused, Eager:
		o.fusion = m
		return nil
	}
	return fmt.Errorf("gb: unknown fusion mode %d", int(m))
}

// WithFusion returns m as a New option, for configurations that read better
// spelled out: gb.New(gb.WithFusion(gb.Eager)).
func WithFusion(m FusionMode) Option { return m }

// WithFusion returns a context executing in the given mode. Pending deferred
// operations on the receiver are materialized first; the receiver is not
// modified.
func (c *Context) WithFusion(m FusionMode) *Context {
	nc := c.clone()
	nc.fusion = m
	nc.rt.Fusion = m == Fused
	return nc
}

// Wait materializes every deferred operation on the context (the GraphBLAS
// GrB_wait). It returns the first execution error of the drained batch;
// reads force the queue too but discard errors, so callers that care should
// Wait explicitly.
func (c *Context) Wait() error { return c.force() }

// qnode is one deferred operation: its planner descriptor, the eager kernel
// that runs it unfused, and — on nodes that can anchor a fused region — the
// type-erased fused entry points. The generic enqueue sites build the
// closures with the element type still in scope, so the non-generic region
// executor never needs reflection.
type qnode struct {
	desc core.OpDesc
	// run executes the op with its exact eager kernel.
	run func() error
	// fuseApply (EWiseMult nodes) runs an Apply∘EWiseMult region given the
	// preceding Apply node. It reports false when the payloads don't line up
	// and the region must fall back to per-op execution.
	fuseApply func(prev *qnode) (bool, error)
	// filterInto (SpMSpV nodes) runs the spmspv+frontier region: the full
	// product is scattered, the predicate filters during denseToSparse, and
	// survivors install directly into dst.
	filterInto func(pred Pred[int64], mask *dist.DenseVec[int64], dst *dist.SpVec[int64]) error
	// maskedInto (SpMSpVMasked nodes) runs the spmspv.masked+assign region.
	maskedInto func(dst *dist.SpVec[int64]) error
	// payload carries the op's typed operands for a later node's fuse closure.
	payload any
}

// applyP is the payload of a deferred Apply.
type applyP[T Number] struct {
	v  *dist.SpVec[T]
	op UnaryOp[T]
}

// ewiseP is the payload of a deferred EWiseMult.
type ewiseP[T Number] struct {
	x    *dist.SpVec[T]
	y    *dist.DenseVec[T]
	pred Pred[T]
	out  *dist.SpVec[T]
}

// assignP is the payload of a deferred Assign.
type assignP[T Number] struct {
	dst, src *dist.SpVec[T]
}

// opQueue is a context's pending-op DAG: a linear op list with operand
// identities (the planner's int32 ids, assigned per batch by object
// identity). The descs and regs buffers are reused across batches so a warm
// materialization allocates only the enqueued nodes.
type opQueue struct {
	nodes []*qnode
	ids   map[any]int32
	nid   int32
	descs []core.OpDesc
	regs  []core.Region
}

// id returns the planner id of operand p, assigning one on first sight.
func (q *opQueue) id(p any) int32 {
	if p == nil {
		return 0
	}
	if v, ok := q.ids[p]; ok {
		return v
	}
	q.nid++
	q.ids[p] = q.nid
	return q.nid
}

// lazy reports whether operations on this context defer: fusion is on and no
// fault plan is armed (faults must surface at the faulting call).
func (c *Context) lazy() bool { return c.fusion == Fused && c.rt.Fault == nil }

// queue returns the context's op queue, creating it on first deferral.
func (c *Context) queue() *opQueue {
	if c.fq == nil {
		c.fq = &opQueue{ids: make(map[any]int32)}
	}
	return c.fq
}

// sync materializes another context's pending ops before an operation on c
// consumes an operand created there.
func (c *Context) sync(other *Context) {
	if other != nil && other != c {
		other.force()
	}
}

// force drains the queue: plan fused regions over the pending descriptors,
// then execute each region — one fused kernel for a recognized chain, the
// per-op eager kernels otherwise. The first error aborts the rest of the
// batch (later ops would read unmaterialized operands).
func (c *Context) force() error { return c.forceObserving(nil) }

// forceObserving drains like force, with the operand the caller is about to
// read marked live: a synthetic trailing read keeps the planner from fusing
// it away, so the read returns the true value instead of an empty
// fused-away intermediate. Reads that arrive after the batch has already
// drained get no such protection — a consumed intermediate stays empty.
func (c *Context) forceObserving(observed any) error {
	q := c.fq
	if q == nil || len(q.nodes) == 0 {
		return nil
	}
	nodes := q.nodes
	q.nodes = q.nodes[:0]
	q.descs = q.descs[:0]
	for _, n := range nodes {
		q.descs = append(q.descs, n.desc)
	}
	if observed != nil {
		if id, ok := q.ids[observed]; ok {
			q.descs = append(q.descs, core.OpDesc{Op: core.OpReduce, In0: id})
		}
	}
	q.regs = core.PlanFusion(q.descs, q.regs)
	var err error
	for _, r := range q.regs {
		if r.Lo >= len(nodes) {
			break // the synthetic read marker has no node to run
		}
		if err = runRegion(nodes, r); err != nil {
			break
		}
	}
	clear(q.ids)
	q.nid = 0
	return err
}

// runRegion executes one planned region. The planner matched on operand
// identity, so the typed payload assertions below can only fail if an op was
// enqueued with mismatched closures — in which case the region degrades to
// per-op execution, which is always correct.
func runRegion(nodes []*qnode, r core.Region) error {
	switch r.Recipe {
	case core.RecipeApplyEWiseMult:
		if em := nodes[r.Lo+1]; em.fuseApply != nil {
			if ok, err := em.fuseApply(nodes[r.Lo]); ok {
				return err
			}
		}
	case core.RecipeSpMSpVFrontier:
		s, e, a := nodes[r.Lo], nodes[r.Lo+1], nodes[r.Lo+2]
		ep, ok1 := e.payload.(ewiseP[int64])
		ap, ok2 := a.payload.(assignP[int64])
		if ok1 && ok2 && s.filterInto != nil {
			return s.filterInto(ep.pred, ep.y, ap.dst)
		}
	case core.RecipeSpMSpVMaskedAssign:
		s, a := nodes[r.Lo], nodes[r.Lo+1]
		if ap, ok := a.payload.(assignP[int64]); ok && s.maskedInto != nil {
			return s.maskedInto(ap.dst)
		}
	}
	for i := r.Lo; i < r.Hi; i++ {
		if err := nodes[i].run(); err != nil {
			return err
		}
	}
	return nil
}

// SpMSpVMasked multiplies like SpMSpV but suppresses every output position
// where mask is nonzero, fused into the multiplication (the complemented
// dense mask of the paper's future-work discussion): suppressed entries never
// cross the network. On a Fused context the call defers; followed by an
// Assign of its result it executes as one spmspv.masked+assign region.
func SpMSpVMasked[T Number](a *Matrix[T], x *Vector[T], mask *DenseVector[int64]) (*Vector[int64], error) {
	if x.v.N != a.m.NRows {
		return nil, fmt.Errorf("gb: SpMSpVMasked: vector capacity %d != matrix rows %d: %w", x.v.N, a.m.NRows, ErrDimensionMismatch)
	}
	if mask.d.N != a.m.NCols {
		return nil, fmt.Errorf("gb: SpMSpVMasked: mask capacity %d != matrix cols %d: %w", mask.d.N, a.m.NCols, ErrDimensionMismatch)
	}
	c := a.ctx
	c.sync(x.ctx)
	c.sync(mask.ctx)
	if c.lazy() {
		q := c.queue()
		out := &Vector[int64]{ctx: c, v: dist.NewSpVec[int64](c.rt, a.m.NCols)}
		rt, am, xv, md, ov := c.rt, a.m, x.v, mask.d, out.v
		q.nodes = append(q.nodes, &qnode{
			desc: core.OpDesc{Op: core.OpSpMSpVMasked, In0: q.id(xv), In1: q.id(md), Out: q.id(ov)},
			run: func() error {
				y, _, err := core.SpMSpVDistMasked(rt, am, xv, md)
				if err != nil {
					return err
				}
				*ov = *y
				return nil
			},
			maskedInto: func(dst *dist.SpVec[int64]) error {
				_, err := core.FusedSpMSpVMaskedAssign(rt, am, xv, md, dst)
				return err
			},
		})
		return out, nil
	}
	y, _, err := core.SpMSpVDistMasked(c.rt, a.m, x.v, mask.d)
	if err != nil {
		return nil, err
	}
	return &Vector[int64]{ctx: c, v: y}, nil
}
