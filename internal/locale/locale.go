// Package locale provides the Chapel-like execution substrate: a grid of
// locales (the paper's abstraction for distributed-memory nodes), block
// distribution helpers, and a runtime that executes per-locale bodies while
// charging the simulated machine model.
//
// Locales are arranged in a two-dimensional Pr×Pc grid (the paper uses 2-D
// block-distributed matrices because they scale better than 1-D). Several
// locales may be placed on the same physical node — the configuration of
// Fig 10, where oversubscription degrades fine-grained communication.
package locale

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/inspect"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// Grid is a two-dimensional arrangement of P = Pr×Pc locales, numbered in
// row-major order, with a mapping of locales to physical nodes.
type Grid struct {
	P, Pr, Pc int
	// LocalesPerNode is how many consecutive locale ids share one node
	// (1 = one locale per node, the normal configuration).
	LocalesPerNode int
	// Host, when non-nil, remaps each logical locale to the physical locale
	// hosting it (identity except for crashed locales adopted by a survivor).
	// The logical Pr×Pc decomposition — and with it every data layout and
	// arithmetic order — is preserved across a locale loss; only the placement
	// changes.
	Host []int
}

// NewGrid builds the squarest possible Pr×Pc grid for p locales
// (Pr <= Pc, Pr the largest divisor of p not exceeding sqrt(p)), with one
// locale per node.
func NewGrid(p int) (*Grid, error) {
	if p < 1 {
		return nil, fmt.Errorf("locale: grid needs at least 1 locale, got %d", p)
	}
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return &Grid{P: p, Pr: pr, Pc: p / pr, LocalesPerNode: 1}, nil
}

// NewGridOnOneNode places all p locales on a single node (Fig 10's setup).
func NewGridOnOneNode(p int) (*Grid, error) {
	g, err := NewGrid(p)
	if err != nil {
		return nil, err
	}
	g.LocalesPerNode = p
	return g, nil
}

// Coords returns the (row, col) grid position of locale l.
func (g *Grid) Coords(l int) (r, c int) { return l / g.Pc, l % g.Pc }

// ID returns the locale id at grid position (r, c).
func (g *Grid) ID(r, c int) int { return r*g.Pc + c }

// HostOf returns the physical locale hosting logical locale l (l itself
// unless l's work was adopted by a survivor after a crash).
func (g *Grid) HostOf(l int) int {
	if g.Host == nil {
		return l
	}
	return g.Host[l]
}

// Adopt reassigns logical locale dead to be hosted by locale host. Logical
// locales the dead one was itself hosting (from an earlier Adopt) follow it
// to the new host, so chains of losses keep every logical id on a live
// physical locale.
func (g *Grid) Adopt(dead, host int) {
	if g.Host == nil {
		g.Host = make([]int, g.P)
		for i := range g.Host {
			g.Host[i] = i
		}
	}
	target := g.Host[host]
	old := g.Host[dead]
	for i := range g.Host {
		if g.Host[i] == old {
			g.Host[i] = target
		}
	}
}

// NodeOf returns the physical node hosting locale l.
func (g *Grid) NodeOf(l int) int { return g.HostOf(l) / g.LocalesPerNode }

// SameNode reports whether two locales share a physical node.
func (g *Grid) SameNode(a, b int) bool { return g.NodeOf(a) == g.NodeOf(b) }

// Nodes returns the number of physical nodes in use.
func (g *Grid) Nodes() int { return (g.P + g.LocalesPerNode - 1) / g.LocalesPerNode }

// RowLocales returns the locale ids in grid row r, in column order.
func (g *Grid) RowLocales(r int) []int {
	ids := make([]int, g.Pc)
	for c := 0; c < g.Pc; c++ {
		ids[c] = g.ID(r, c)
	}
	return ids
}

// ColLocales returns the locale ids in grid column c, in row order.
func (g *Grid) ColLocales(c int) []int {
	ids := make([]int, g.Pr)
	for r := 0; r < g.Pr; r++ {
		ids[r] = g.ID(r, c)
	}
	return ids
}

// BlockBounds computes the 1-D block distribution of n indices over p parts:
// part i owns [bounds[i], bounds[i+1]). Parts differ in size by at most one.
func BlockBounds(n, p int) []int {
	b := make([]int, p+1)
	for i := 0; i <= p; i++ {
		b[i] = i * n / p
	}
	return b
}

// OwnerOf returns which part of a BlockBounds(n, p) distribution owns index
// i, in O(1).
func OwnerOf(n, p, i int) int {
	// Inverse of b[k] = k*n/p: candidate k = (i*p+p-1)/n neighborhood.
	if n == 0 {
		return 0
	}
	k := i * p / n
	for k > 0 && i < k*n/p {
		k--
	}
	for k < p-1 && i >= (k+1)*n/p {
		k++
	}
	return k
}

// Cancellation errors. ErrDeadlineExceeded wraps ErrCanceled, so
// errors.Is(err, ErrCanceled) catches every cooperative abort while
// errors.Is(err, ErrDeadlineExceeded) distinguishes a budget expiry from an
// explicit cancel.
var (
	// ErrCanceled is returned by Runtime.Canceled (and wrapped by every
	// operation it aborts) when the runtime's cancel hook fires.
	ErrCanceled = errors.New("locale: operation canceled")
	// ErrDeadlineExceeded is returned when the runtime's modeled deadline
	// passes. It wraps ErrCanceled.
	ErrDeadlineExceeded = fmt.Errorf("locale: modeled deadline exceeded: %w", ErrCanceled)
)

// Runtime couples a grid with a simulator and execution parameters. All
// GraphBLAS operations run through a Runtime: they execute real Go code on
// real data while the Runtime charges the machine model for the structure of
// that execution.
type Runtime struct {
	G *Grid
	S *sim.Sim
	// Threads is the modeled number of threads used per locale.
	Threads int
	// RealWorkers is the number of goroutines shared-memory kernels actually
	// spawn. 1 gives deterministic execution (the default); tests raise it to
	// exercise the concurrent code paths under -race.
	RealWorkers int
	// ShmEngine selects the shared-memory SpMSpV pipeline used by the local
	// multiplies of distributed operations; the values are internal/core's
	// Engine constants. 0 (EngineMergeSort) is the paper's merge-sort pipeline.
	ShmEngine int
	// Fault is the optional fault injector driving modeled failures; nil runs
	// fault-free. Install with WithFault.
	Fault *fault.Injector
	// Retry governs the timeout/backoff of the retryable collectives; zero
	// fields fall back to fault.DefaultRetryPolicy.
	Retry fault.RetryPolicy
	// Health is the failure detector tracking each locale's Alive/Suspect/Dead
	// state on the modeled clock. Installed by WithFault alongside the
	// injector; nil (the fault-free configuration) observes nothing.
	Health *health.Detector
	// Recovery selects how algorithms respond to a permanent locale loss; the
	// zero value keeps the historical full redistribution.
	Recovery fault.RecoveryPolicy
	// Recoveries logs every completed locale-loss recovery on this runtime,
	// in the order they happened; gbbench aggregates it into the MTTR report.
	Recoveries []fault.Recovery
	// Tr is the optional tracer every operation reports spans into; nil
	// disables tracing (the instrumentation is nil-safe). Install with
	// SetTracer so the tracer is bound to this runtime's simulator.
	Tr *trace.Tracer
	// WP is the runtime's persistent worker pool: created once per Runtime and
	// reused by every ParFor, so steady-state parallel kernels spawn no
	// goroutines. Nil routes to the process-wide shared pool.
	WP *workpool.Pool
	// Scratch is the runtime's kernel scratch arena; kernels check dense
	// accumulators and buffers out of it instead of allocating per call. Nil
	// degrades every checkout to a plain allocation.
	Scratch *sparse.ScratchPool
	// Fusion routes the distributed algorithm loops (BFS/SSSP/PageRank/CC)
	// through the fused region kernels of internal/core (FusedBFSRound,
	// FusedSpMVUpdate) instead of the eager per-op chains. Results are
	// bitwise identical; fused rounds charge fewer modeled collectives. The
	// gb surface sets this from its fusion mode; raw runtimes default to
	// eager.
	Fusion bool
	// Cancel is an optional cooperative cancellation hook. Algorithm fixpoint
	// loops and the collectives' retry loops poll it (via Canceled) at round
	// and attempt boundaries; a non-nil return aborts the operation with that
	// error at the next poll. The gb surface wires an expired context.Context
	// in through this hook; raw runtimes default to never-canceled.
	Cancel func() error
	// DeadlineNS, when positive, is an absolute modeled-clock deadline:
	// Canceled reports ErrDeadlineExceeded once the maximum locale clock
	// passes it. The collectives additionally cap their retry backoff
	// schedules by the remaining budget instead of sleeping them out.
	DeadlineNS float64
	// Insp is the optional inspector of the inspector–executor layer: when
	// non-nil, the dispatching kernel wrappers of internal/core consult it to
	// pick a communication variant (fine vs bulk, gather vs replicate, push
	// vs pull) from modeled costs. Nil keeps every kernel's historical
	// hardcoded variant. The gb surface installs one per Context; raw
	// runtimes default to nil.
	Insp *inspect.Inspector
}

// SetTracer installs t (nil uninstalls) and binds it to the runtime's
// simulator so spans snapshot the right clocks and counters.
func (rt *Runtime) SetTracer(t *trace.Tracer) {
	rt.Tr = t
	if t != nil {
		t.Bind(rt.S)
	}
	rt.Health.SetTracer(t)
}

// Span opens a span on the runtime's tracer; with no tracer installed it
// returns nil, on which End is a no-op:
//
//	defer rt.Span("SpMSpVDist").End()
func (rt *Runtime) Span(name string, tags ...trace.Tag) *trace.Span {
	return rt.Tr.Begin(name, tags...)
}

// WithFault builds an injector from plan, installs it on the runtime and
// registers it as the simulator's transfer hook, and stands up the health
// detector that will narrate the failure timeline. Returns rt for chaining.
func (rt *Runtime) WithFault(plan fault.Plan) *Runtime {
	in := fault.NewInjector(plan, rt.G.P)
	rt.Fault = in
	rt.S.SetHook(in)
	rt.Health = health.New(health.Config{}, rt.G.P)
	rt.Health.SetTracer(rt.Tr)
	return rt
}

// FaultAttempt draws the fault verdict for one collective transfer attempt
// between src and dst; without an injector every attempt succeeds cleanly.
func (rt *Runtime) FaultAttempt(src, dst int) (fault.Verdict, error) {
	return rt.Fault.Attempt(src, dst)
}

// DownLocale returns the lowest-numbered permanently lost locale, or -1 when
// every locale is alive. Each call doubles as a health poll: every locale's
// injector state is fed to the detector at the current modeled time, so the
// algorithms' round-boundary liveness checks build the detection timeline as
// a side effect.
func (rt *Runtime) DownLocale() int {
	if rt.Health != nil {
		now := rt.S.Elapsed()
		for l := 0; l < rt.G.P; l++ {
			rt.Health.Observe(l, rt.Fault.Down(l), now)
		}
	}
	return rt.Fault.AnyDown()
}

// RetryPolicy returns the runtime's retry policy with defaults filled in.
func (rt *Runtime) RetryPolicy() fault.RetryPolicy { return rt.Retry.WithDefaults() }

// Canceled reports whether the runtime's operation should abort: it returns
// ErrDeadlineExceeded once the modeled clock passes DeadlineNS, then whatever
// the Cancel hook reports (nil otherwise). Algorithms poll it at round
// boundaries, so a cancel or deadline surfaces within one round of firing.
func (rt *Runtime) Canceled() error {
	if rt.DeadlineNS > 0 && rt.S.Elapsed() > rt.DeadlineNS {
		return ErrDeadlineExceeded
	}
	if rt.Cancel != nil {
		if err := rt.Cancel(); err != nil {
			if errors.Is(err, ErrCanceled) {
				return err
			}
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	return nil
}

// DeadlineRemainingNS returns the modeled time left before DeadlineNS, or
// +Inf without a deadline. Collectives use it to cap retry backoff schedules.
func (rt *Runtime) DeadlineRemainingNS() float64 {
	if rt.DeadlineNS <= 0 {
		return inf
	}
	return rt.DeadlineNS - rt.S.Elapsed()
}

var inf = math.Inf(1)

// NoteRecovery appends one completed recovery to the runtime's log.
func (rt *Runtime) NoteRecovery(r fault.Recovery) { rt.Recoveries = append(rt.Recoveries, r) }

// Degrade reconfigures the runtime in place after the permanent loss of
// locale dead: the next locale in the grid adopts the dead locale's work (its
// clock is aliased onto the host's, so the host pays for both shares), every
// live clock absorbs penalty ns of failure detection/reconfiguration cost,
// and the fault injector is rebased so the consumed crash cannot re-fire.
// The logical grid shape is deliberately preserved — data layouts and
// reduction orders stay identical, which is what lets a rolled-back replay
// reproduce the fault-free results bit for bit. Returns the adopting host.
func (rt *Runtime) Degrade(dead int, penaltyNS float64) (int, error) {
	p := rt.G.P
	if p < 2 {
		return -1, fmt.Errorf("locale: cannot degrade a %d-locale runtime", p)
	}
	if dead < 0 || dead >= p {
		return -1, fmt.Errorf("locale: degrade: locale %d outside grid of %d", dead, p)
	}
	rt.Health.Confirm(dead, rt.S.Elapsed())
	host := (dead + 1) % p
	rt.G.Adopt(dead, host)
	rt.S.Alias(dead, host)
	rt.S.Advance(host, penaltyNS)
	rt.S.Barrier()
	rt.Fault.Rebase(p)
	return host, nil
}

// New builds a runtime with p locales (one per node) and the given modeled
// thread count per locale.
func New(m machine.Machine, p, threads int) (*Runtime, error) {
	g, err := NewGrid(p)
	if err != nil {
		return nil, err
	}
	return NewWithGrid(m, g, threads), nil
}

// NewWithGrid builds a runtime over an existing grid.
func NewWithGrid(m machine.Machine, g *Grid, threads int) *Runtime {
	if threads < 1 {
		threads = 1
	}
	return &Runtime{
		G: g, S: sim.New(m, g.P), Threads: threads, RealWorkers: 1,
		WP:      workpool.New(),
		Scratch: sparse.NewScratchPool(),
	}
}

// Coforall models a `coforall loc in Locales do on loc { body }`: it charges
// the remote task launches, then runs body(l) for every locale (sequentially,
// so distributed results are deterministic; the model treats the bodies as
// concurrent because each charges its own locale clock), and closes with a
// barrier.
func (rt *Runtime) Coforall(body func(loc int)) {
	rt.S.CoforallSpawn()
	for l := 0; l < rt.G.P; l++ {
		body(l)
	}
	rt.S.Barrier()
}

// ParFor executes body over [0, n) split into contiguous chunks across the
// runtime's RealWorkers, dispatched on the runtime's persistent worker pool,
// and blocks until all complete. It performs no cost charging — callers charge
// the model separately — and with RealWorkers == 1 it degenerates to a plain
// in-caller loop. The chunk partition (chunk w owns [w*n/W, (w+1)*n/W)) is
// identical to the historical spawn-per-call split, so worker-indexed kernels
// see the same deterministic ownership.
func (rt *Runtime) ParFor(n int, body func(lo, hi int)) {
	rt.WP.ParFor(rt.RealWorkers, n, body)
}

// ParForChunk is ParFor with the chunk index exposed to the body; kernels use
// it to address worker-private scratch deterministically.
func (rt *Runtime) ParForChunk(n int, body func(c, lo, hi int)) {
	rt.WP.ParForChunk(rt.RealWorkers, n, body)
}

// ParFor executes body over [0, n) in contiguous chunks on up to workers
// executors drawn from the process-wide shared worker pool.
func ParFor(workers, n int, body func(lo, hi int)) {
	workpool.ParFor(workers, n, body)
}

// FineLatencyOpts builds the sim.RemoteOpts for fine-grained traffic from
// locale src to locale dst under this runtime's node placement: intra-node
// placement switches to the oversubscription-scaled shared-memory conduit.
func (rt *Runtime) FineLatencyOpts(src, dst int, msgs int64, bytesPerMsg float64, contenders int) sim.RemoteOpts {
	o := sim.RemoteOpts{
		Msgs:        msgs,
		BytesPerMsg: bytesPerMsg,
		Contenders:  contenders,
		Overlap:     float64(rt.Threads),
	}
	if o.Overlap > rt.S.M.FineGrainOverlap {
		o.Overlap = rt.S.M.FineGrainOverlap
	}
	if rt.G.SameNode(src, dst) && rt.G.LocalesPerNode > 1 {
		o.IntraNode = true
		o.ColocatedLocales = rt.G.LocalesPerNode
	}
	return o
}

// NewGridShape builds an explicit Pr×Pc grid (one locale per node); used by
// the 1-D vs 2-D distribution ablation.
func NewGridShape(pr, pc int) (*Grid, error) {
	if pr < 1 || pc < 1 {
		return nil, fmt.Errorf("locale: grid shape %dx%d invalid", pr, pc)
	}
	return &Grid{P: pr * pc, Pr: pr, Pc: pc, LocalesPerNode: 1}, nil
}
