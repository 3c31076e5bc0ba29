// Package serve implements the always-on graph query service behind
// cmd/gbserve: distributed graphs are loaded (or generated) once at startup
// and concurrent BFS/SSSP/PageRank/CC/triangle queries are served over HTTP
// with a real robustness envelope — per-tenant token buckets and a global
// concurrency limiter with a bounded wait queue (over-capacity requests get
// fast 429s), cooperative cancellation and deadlines propagated into the
// algorithm round loops (a gone client or an expired budget aborts within
// one round with a typed error), a same-graph batcher that coalesces the BFS
// requests that arrive while one is running into one MultiSourceBFS run (no
// window and no timer: an idle graph serves a BFS at once), snapshot-isolated
// reads on the streaming matrices' committed epochs, a per-graph reply cache
// that answers each (snapshot, query) once and replays the encoded body to
// every repeat, and readiness/liveness endpoints plus per-tenant Prometheus
// counters for the operators.
//
// Concurrency model. Every query runs on its own derived gb.Context — a
// clone sharing the base context's grid, worker pool and scratch arena (all
// safe for concurrent use) but carrying a private modeled clock, inspector
// and cancellation state. Derivations, mutations, flushes and calibration
// absorption are serialized per graph under a mutex; the queries themselves
// run lock-free and in parallel. The base query context carries no tracer
// (a tracer is bound to one simulator; sharing it across concurrent clones
// would race) — the operator-facing tracer rides the load/mutate context,
// which only ever runs under the graph lock.
//
// What a graph serves — its committed epoch and stale flag — is also
// published in one atomic word, stored under the graph mutex by LoadGraph and
// by flush before the mutex is released. Everything that only needs to know
// the epoch reads that word and takes no lock the write path holds: the
// reply-cache lookup, /readyz, the epoch gauge on /metrics. Because the store
// precedes the unlock, any snapshot derived afterwards is of an epoch the word
// already names, so replies to one client never go back in time whichever
// path answers them.
//
// The reply cache (cache.go) sits after admission and before any of the
// above: a fault-free query whose (epoch, stale flag, op, source, effective
// PageRank parameters) was answered before gets the stored body back — no
// derivation, no run, no encoder, no graph mutex — under X-GB-Cache: hit. A
// miss takes the path described here, unchanged, and stores what it wrote. A
// hit therefore replays the rounds, batch and modeled_ms of the run that
// produced it: modeled_ms is the modeled cost of computing the answer,
// whichever request paid it, and budget_ms is checked against it on a hit as
// on a run. Errors are never stored, and one epoch's entries are dropped
// when a lookup or a store first names a newer one.
//
// Every fault-free, non-stale sssp the cache has no answer for consults the
// graph's SSSP state store (sssp.go) after it derives its snapshot: the
// source's last distances seed the run when gb.IncrementalSSSP finds that no
// epoch since deleted an edge or raised a weight, and the run's result is
// stored in their place. The distances are a cold run's bit for bit; the
// reply's rounds and modeled_ms are the work this run did, and
// X-GB-SSSP-Start says which start it was. The store has its own mutex and
// never takes the graph mutex.
//
// Every fault-free BFS the cache has no answer for goes through the batcher
// (batcher.go), and each member's reply is stored under its own source. One
// batch per graph is in flight at a time, beside the other ops and the other
// graphs; a batch is never larger than MaxConcurrent, because its members
// hold their admission slots while they wait.
//
// Chaos queries (a request carrying a fault plan) get a fully isolated
// context and a private copy of the snapshot instead of a derived clone:
// crash recovery mutates the shared grid (locale adoption), which must never
// leak into concurrent fault-free queries on the same graph. They neither
// read nor fill the reply cache.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/gb"
	"repro/internal/sparse"
)

// Config assembles a Server. The zero value of every field falls back to a
// sensible default (see the field comments).
type Config struct {
	// Locales and Threads shape the modeled cluster every graph is
	// distributed over (defaults 4 and 4).
	Locales int
	Threads int
	// Policy is the crash-recovery policy of chaos queries and flushes
	// (default Redistribute). Replicate adds chained-declustering block
	// replicas, enabling Failover.
	Policy    gb.RecoveryPolicy
	Replicate bool
	// MaxConcurrent bounds the queries running at once (default 8);
	// MaxQueue bounds how many more may wait (default 16); MaxWait bounds
	// how long each waits (default 250ms). Beyond that, requests shed.
	MaxConcurrent int
	MaxQueue      int
	MaxWait       time.Duration
	// TenantRate and TenantBurst shape each tenant's token bucket
	// (defaults 100 queries/second, burst 20).
	TenantRate  float64
	TenantBurst int
	// DefaultTimeout is the per-query wall-clock timeout when the request
	// does not set one (default 10s).
	DefaultTimeout time.Duration
	// DefaultBudgetNS is the per-query modeled-time budget when the request
	// does not set one; 0 means no modeled deadline by default.
	DefaultBudgetNS float64
	// Tracer, when non-nil, records load/mutate/flush spans and rides the
	// /metrics endpoint. It must not be shared with anything else.
	Tracer *gb.Trace
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Locales < 1 {
		c.Locales = 4
	}
	if c.Threads < 1 {
		c.Threads = 4
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	if c.TenantRate <= 0 {
		c.TenantRate = 100
	}
	if c.TenantBurst < 1 {
		c.TenantBurst = 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	return c
}

// graph is one loaded graph: its streaming matrix, the two base contexts,
// and the BFS batcher's queue.
type graph struct {
	name string
	// mu serializes everything that touches the contexts' shared mutable
	// state: query-context derivation, calibration absorption, mutations
	// and flushes. Queries themselves run outside it.
	mu sync.Mutex
	// load is the context the graph was created on: it owns the streaming
	// matrix and carries the operator tracer. Only used under mu.
	load *gb.Context
	// base is the tracer-less parent every query context derives from; its
	// inspector accumulates the calibration absorbed back from finished
	// queries.
	base   *gb.Context
	stream *gb.StreamingMatrix[float64]

	// served is what a query would be answered from, in one word a reader
	// needs no lock for: the committed epoch shifted left once, the stale
	// flag in the low bit. publish stores it, under mu.
	served atomic.Uint64
	// replies is the reply cache (cache.go) and states the SSSP state store
	// (sssp.go); each has a mutex of its own.
	replies *replyCache
	states  *ssspStates

	// The BFS batcher (batcher.go): the requests queued for the next run,
	// and whether a run is in flight.
	batchMu sync.Mutex
	pending []bfsWaiter
	running bool
}

// publish stores the stream's committed epoch and stale flag in g.served.
// Callers hold g.mu and call it before they release it: whoever then derives
// a snapshot, and names its epoch in a reply, does so after the word already
// says at least that epoch — so a reply served by looking the word up can
// never name an epoch older than one the same client has already been shown.
// flush is the only caller after load: mutate commits nothing, because the
// server's EpochPolicy sets no FlushEvery.
func (g *graph) publish() {
	word := g.stream.Epoch() << 1
	if g.stream.Stale() {
		word |= 1
	}
	g.served.Store(word)
}

// servedEpoch reads the published word: no lock, so it answers while a flush
// or a derivation holds g.mu.
func (g *graph) servedEpoch() (epoch uint64, stale bool) {
	word := g.served.Load()
	return word >> 1, word&1 == 1
}

// Server is the query service. Create with New, add graphs with LoadGraph,
// expose Handler over HTTP, stop with Drain.
type Server struct {
	cfg     Config
	started time.Time

	mu     sync.Mutex
	graphs map[string]*graph

	tenants *tenants
	limit   *limiter
	met     *metrics

	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a Server; graphs are added with LoadGraph.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		started: time.Now(),
		graphs:  make(map[string]*graph),
		tenants: newTenants(cfg.TenantRate, cfg.TenantBurst),
		limit:   newLimiter(cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxWait),
		met:     newMetrics(),
	}
}

// LoadGraph distributes a local CSR adjacency matrix over the configured
// grid as epoch 0 of a streaming matrix and registers it under name.
func (s *Server) LoadGraph(name string, a *sparse.CSR[float64]) error {
	if name == "" {
		return fmt.Errorf("serve: graph name must not be empty")
	}
	opts := []gb.Option{
		gb.Locales(s.cfg.Locales), gb.Threads(s.cfg.Threads),
		gb.WithRecoveryPolicy(s.cfg.Policy),
	}
	if s.cfg.Replicate {
		opts = append(opts, gb.WithReplication())
	}
	base, err := gb.New(opts...)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", name, err)
	}
	load := base
	if s.cfg.Tracer != nil {
		// The tracer is bound to exactly one context (one simulator); the
		// query parent stays tracer-less so concurrent clones never rebind
		// a shared tracer.
		load = base.WithTracer(s.cfg.Tracer)
	}
	stream := gb.StreamingMatrixFromCSR(load, a)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[name]; dup {
		return fmt.Errorf("serve: graph %q already loaded", name)
	}
	g := &graph{name: name, load: load, base: base, stream: stream, replies: newReplyCache(), states: newSSSPStates()}
	g.publish() // nobody else holds g yet
	s.graphs[name] = g
	return nil
}

// graphByName resolves a loaded graph.
func (s *Server) graphByName(name string) *graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphs[name]
}

// graphNames returns the loaded graph names, unsorted.
func (s *Server) graphNames() []*graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*graph, 0, len(s.graphs))
	for _, g := range s.graphs {
		out = append(out, g)
	}
	return out
}

// Ready reports whether the service should receive traffic: at least one
// graph is loaded and it is not draining.
func (s *Server) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.graphs) > 0
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain flips the server to draining — readiness goes false, new queries are
// rejected with 503 — and waits for the in-flight queries to finish, or for
// ctx to expire, whichever comes first. SIGTERM handling in cmd/gbserve
// calls this before http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain aborted with queries in flight: %w", ctx.Err())
	}
}

// deriveQuery builds the per-query context and snapshot under the graph
// lock: a clone of the base context carrying the request's cancellation and
// modeled budget, and the committed epoch pinned and rebound to it. The
// returned release absorbs the query's inspector calibration back into the
// base — the satellite of ROADMAP item 4: learning persists across the
// requests a long-lived context serves.
func (s *Server) deriveQuery(g *graph, ctx context.Context, budgetNS float64) (qc *gb.Context, m *gb.Matrix[float64], epoch uint64, stale bool, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	qc = g.base.WithCancelContext(ctx)
	if budgetNS > 0 {
		qc = qc.WithModeledDeadline(budgetNS)
	}
	sm, ep := g.stream.Matrix()
	m = sm.WithContext(qc)
	epoch, stale = ep, g.stream.Stale()
	release = func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.base.AbsorbCalibration(qc)
	}
	return qc, m, epoch, stale, release
}

// mutate applies a batch of updates and deletes under the graph lock. Every
// coordinate of both lists is checked before any is absorbed, so a rejected
// batch leaves nothing pending for the next flush to commit.
func (g *graph) mutate(rows, cols []int, vals []float64, delRows, delCols []int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	nr, nc := g.stream.NRows(), g.stream.NCols()
	for _, coords := range [][2][]int{{rows, cols}, {delRows, delCols}} {
		is, js := coords[0], coords[1]
		if len(is) != len(js) {
			return fmt.Errorf("serve: %d rows but %d columns", len(is), len(js))
		}
		for k := range is {
			if is[k] < 0 || is[k] >= nr || js[k] < 0 || js[k] >= nc {
				return fmt.Errorf("serve: (%d, %d) outside the %dx%d matrix: %w", is[k], js[k], nr, nc, gb.ErrIndexOutOfRange)
			}
		}
	}
	if len(rows) > 0 {
		if err := g.stream.UpdateBatch(rows, cols, vals); err != nil {
			return err
		}
	}
	for k := range delRows {
		if err := g.stream.Delete(delRows[k], delCols[k]); err != nil {
			return err
		}
	}
	return nil
}

// flush commits the pending mutations as a new epoch under the graph lock,
// and publishes it before the lock goes.
func (g *graph) flush() (epoch uint64, stale bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	epoch, err = g.stream.Flush()
	g.publish()
	return epoch, g.stream.Stale(), err
}

// snapshotCSR gathers the committed epoch into a local CSR on a derived
// context (chaos queries rebuild an isolated distribution from it).
func (s *Server) snapshotCSR(g *graph, ctx context.Context) (*sparse.CSR[float64], uint64, bool, error) {
	_, m, epoch, stale, release := s.deriveQuery(g, ctx, 0)
	defer release()
	csr, err := m.ToCSR()
	return csr, epoch, stale, err
}
