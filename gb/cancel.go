package gb

import (
	"context"

	"repro/internal/locale"
)

// Cancellation surface: a Context can carry a cooperative cancel hook and a
// modeled-clock deadline. The algorithm fixpoint loops (BFS/DOBFS/SSSP/
// PageRank/CC/KTruss/TriangleCount/MultiSourceBFS) and the collectives' retry
// loops poll the hook at round and attempt boundaries, so a fired cancel or
// an expired deadline aborts the operation with a typed error within one
// round — leaving pinned epoch snapshots and scratch pools clean for reuse.
// The query service (cmd/gbserve) builds its per-request deadlines on this.

// Typed cancellation errors, matchable with errors.Is.
// ErrDeadlineExceeded wraps ErrQueryCanceled, so errors.Is(err,
// ErrQueryCanceled) catches every cooperative abort while errors.Is(err,
// ErrDeadlineExceeded) distinguishes a budget expiry from an explicit cancel.
var (
	// ErrQueryCanceled reports an operation aborted by the context's cancel
	// hook (e.g. the client went away).
	ErrQueryCanceled = locale.ErrCanceled
	// ErrDeadlineExceeded reports an operation aborted because the context's
	// modeled deadline passed.
	ErrDeadlineExceeded = locale.ErrDeadlineExceeded
)

// WithCancel returns a context whose subsequent operations poll check at
// every algorithm round and collective retry boundary: the first non-nil
// return aborts the operation with an error wrapping ErrQueryCanceled (and
// the hook's error). check must be safe to call repeatedly; nil removes an
// inherited hook. The receiver is not modified.
func (c *Context) WithCancel(check func() error) *Context {
	nc := c.clone()
	nc.rt.Cancel = check
	return nc
}

// WithCancelContext wires a standard context.Context in as the cancel hook:
// once ctx is done, the next round boundary aborts with an error wrapping
// both ErrQueryCanceled and ctx.Err() (so errors.Is sees
// context.Canceled/context.DeadlineExceeded too). The receiver is not
// modified.
func (c *Context) WithCancelContext(ctx context.Context) *Context {
	return c.WithCancel(func() error { return ctx.Err() })
}

// WithModeledDeadline returns a context whose subsequent operations must
// complete within budgetNS of modeled time from now: once the modeled clock
// passes the deadline, the next round boundary aborts with
// ErrDeadlineExceeded, and the collectives cap their retry backoff schedules
// by the remaining budget instead of sleeping them out. budgetNS <= 0 removes
// an inherited deadline. The receiver is not modified.
func (c *Context) WithModeledDeadline(budgetNS float64) *Context {
	nc := c.clone()
	if budgetNS <= 0 {
		nc.rt.DeadlineNS = 0
		return nc
	}
	nc.rt.DeadlineNS = nc.rt.S.Elapsed() + budgetNS
	return nc
}

// AbsorbCalibration folds the EWMA calibration learned by a derived context's
// inspector back into this context's inspector (see WithStrategy: a derived
// context clones the inspector, so its learning normally dies with it).
// Long-lived contexts serving repeated queries call this after each derived
// query context finishes; the next derivation then starts from the
// accumulated calibration. Decision history is not merged. Pending deferred
// operations on from are materialized first; the receiver's are not touched.
func (c *Context) AbsorbCalibration(from *Context) {
	if from == nil {
		return
	}
	from.force()
	c.rt.Insp.AbsorbCalibration(from.rt.Insp)
}

// WithContext returns a view of the matrix bound to ctx: the same distributed
// blocks, with subsequent operations charged to (and canceled by) ctx. The
// matrix data is shared, not copied — the caller is responsible for not
// mutating it from two contexts at once. A streaming snapshot's view is the
// same epoch's snapshot, stamp included (see IncrementalSSSP). Pending
// deferred operations producing the matrix are materialized first.
func (m *Matrix[T]) WithContext(ctx *Context) *Matrix[T] {
	m.ctx.forceObserving(m.m)
	return &Matrix[T]{ctx: ctx, m: m.m, pin: m.pin}
}

// Context returns the context the matrix is bound to.
func (m *Matrix[T]) Context() *Context { return m.ctx }
