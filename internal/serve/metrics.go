package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/trace"
)

// Per-tenant service metrics in the Prometheus text exposition format,
// appended to the trace handler's gb_op_* aggregates on /metrics. Everything
// is plain counters under one mutex — the service's own bookkeeping must not
// contend with the queries it measures.

// Query outcomes, the outcome label of gbserve_queries_total.
const (
	outcomeOK       = "ok"
	outcomeError    = "error"
	outcomeCanceled = "canceled"
	outcomeDeadline = "deadline"
)

// qkey labels one query counter.
type qkey struct {
	tenant, op, outcome string
}

// latAgg accumulates wall-clock latency for one tenant.
type latAgg struct {
	sumSeconds float64
	count      int64
}

type metrics struct {
	mu        sync.Mutex
	queries   map[qkey]int64
	shed      map[string]int64 // by tenant
	lat       map[string]*latAgg
	batchRuns int64
	batched   int64
	batchWait float64 // seconds batched queries spent queued behind a running batch
	// Fault-free SSSP runs and their relaxation rounds, by start: index 0
	// cold, 1 warm (ssspStarts).
	ssspRuns, ssspRounds [2]int64
}

// ssspStarts are the start label values of the SSSP series, by index.
var ssspStarts = [2]string{"cold", "warm"}

func newMetrics() *metrics {
	return &metrics{
		queries: make(map[qkey]int64),
		shed:    make(map[string]int64),
		lat:     make(map[string]*latAgg),
	}
}

func (m *metrics) noteQuery(tenant, op, outcome string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries[qkey{tenant, op, outcome}]++
	a := m.lat[tenant]
	if a == nil {
		a = &latAgg{}
		m.lat[tenant] = a
	}
	a.sumSeconds += seconds
	a.count++
}

func (m *metrics) noteShed(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed[tenant]++
}

// noteBatch records one coalesced run of size queries that between them
// waited waitSeconds from joining the batcher to the run's start.
func (m *metrics) noteBatch(size int, waitSeconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchRuns++
	m.batched += int64(size)
	m.batchWait += waitSeconds
}

// noteSSSP records one fault-free SSSP run of rounds rounds.
func (m *metrics) noteSSSP(warm bool, rounds int) {
	i := 0
	if warm {
		i = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ssspRuns[i]++
	m.ssspRounds[i] += int64(rounds)
}

// write emits the service counters in deterministic (sorted-label) order.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprint(w, "# HELP gbserve_queries_total Queries by tenant, op and outcome.\n# TYPE gbserve_queries_total counter\n")
	qkeys := make([]qkey, 0, len(m.queries))
	for k := range m.queries {
		qkeys = append(qkeys, k)
	}
	sort.Slice(qkeys, func(i, j int) bool {
		a, b := qkeys[i], qkeys[j]
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		if a.op != b.op {
			return a.op < b.op
		}
		return a.outcome < b.outcome
	})
	for _, k := range qkeys {
		fmt.Fprintf(w, "gbserve_queries_total{tenant=%q,op=%q,outcome=%q} %d\n", k.tenant, k.op, k.outcome, m.queries[k])
	}

	fmt.Fprint(w, "# HELP gbserve_shed_total Requests shed by admission control, by tenant.\n# TYPE gbserve_shed_total counter\n")
	tenants := make([]string, 0, len(m.shed))
	for t := range m.shed {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		fmt.Fprintf(w, "gbserve_shed_total{tenant=%q} %d\n", t, m.shed[t])
	}

	fmt.Fprint(w, "# HELP gbserve_query_seconds_sum Wall-clock query latency sum by tenant.\n# TYPE gbserve_query_seconds_sum counter\n")
	lts := make([]string, 0, len(m.lat))
	for t := range m.lat {
		lts = append(lts, t)
	}
	sort.Strings(lts)
	for _, t := range lts {
		fmt.Fprintf(w, "gbserve_query_seconds_sum{tenant=%q} %g\n", t, m.lat[t].sumSeconds)
	}
	fmt.Fprint(w, "# HELP gbserve_query_seconds_count Completed queries by tenant.\n# TYPE gbserve_query_seconds_count counter\n")
	for _, t := range lts {
		fmt.Fprintf(w, "gbserve_query_seconds_count{tenant=%q} %d\n", t, m.lat[t].count)
	}

	fmt.Fprintf(w, "# HELP gbserve_batch_runs_total Coalesced MultiSourceBFS runs.\n# TYPE gbserve_batch_runs_total counter\ngbserve_batch_runs_total %d\n", m.batchRuns)
	fmt.Fprintf(w, "# HELP gbserve_batched_queries_total BFS queries served from a coalesced run.\n# TYPE gbserve_batched_queries_total counter\ngbserve_batched_queries_total %d\n", m.batched)
	fmt.Fprintf(w, "# HELP gbserve_batch_wait_seconds_sum Time batched BFS queries spent queued behind a running batch (join to run start).\n# TYPE gbserve_batch_wait_seconds_sum counter\ngbserve_batch_wait_seconds_sum %g\n", m.batchWait)
	fmt.Fprintf(w, "# HELP gbserve_batch_wait_seconds_count Batched BFS queries whose wait was recorded.\n# TYPE gbserve_batch_wait_seconds_count counter\ngbserve_batch_wait_seconds_count %d\n", m.batched)

	fmt.Fprint(w, "# HELP gbserve_sssp_runs_total Fault-free SSSP runs, by whether they started from a stored state (warm) or from infinity (cold).\n# TYPE gbserve_sssp_runs_total counter\n")
	for i, start := range ssspStarts {
		fmt.Fprintf(w, "gbserve_sssp_runs_total{start=%q} %d\n", start, m.ssspRuns[i])
	}
	fmt.Fprint(w, "# HELP gbserve_sssp_rounds_total Relaxation rounds of fault-free SSSP runs, by start.\n# TYPE gbserve_sssp_rounds_total counter\n")
	for i, start := range ssspStarts {
		fmt.Fprintf(w, "gbserve_sssp_rounds_total{start=%q} %d\n", start, m.ssspRounds[i])
	}
}

// writeMetrics writes the service counters, the reply-cache counters, the
// per-graph gauges, and (when a tracer is configured) the trace handler's
// gb_op_* aggregates.
func (s *Server) writeMetrics(w io.Writer) {
	s.met.write(w)

	graphs := s.graphNames()
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].name < graphs[j].name })
	writeGraphGauges(w, graphs)
	fmt.Fprint(w, "# HELP gbserve_graph_stale_serves_total Flushes that served a stale epoch (BestEffort), per graph.\n# TYPE gbserve_graph_stale_serves_total counter\n")
	for _, g := range graphs {
		g.mu.Lock()
		ss := g.stream.StaleServes()
		g.mu.Unlock()
		fmt.Fprintf(w, "gbserve_graph_stale_serves_total{graph=%q} %d\n", g.name, ss)
	}

	if s.cfg.Tracer != nil {
		_ = trace.WritePrometheus(w, s.cfg.Tracer)
	}
}

// writeGraphGauges writes everything about the graphs that is read without
// their mutexes — a scrape does not queue behind a flush for these: the
// reply-cache counters summed over the graphs, and per graph the published
// epoch, the cache's size and the scratch arena's loans.
func writeGraphGauges(w io.Writer, graphs []*graph) {
	var total replyCounters
	bytes, entries := make([]int, len(graphs)), make([]int, len(graphs))
	for i, g := range graphs {
		var n replyCounters
		n, bytes[i], entries[i] = g.replies.stats()
		total.hits += n.hits
		total.misses += n.misses
		total.evictions += n.evictions
		total.duplicateMisses += n.duplicateMisses
	}
	fmt.Fprintf(w, "# HELP gbserve_reply_cache_hits_total Fault-free queries answered from the reply cache.\n# TYPE gbserve_reply_cache_hits_total counter\ngbserve_reply_cache_hits_total %d\n", total.hits)
	fmt.Fprintf(w, "# HELP gbserve_reply_cache_misses_total Fault-free queries the reply cache had no answer for.\n# TYPE gbserve_reply_cache_misses_total counter\ngbserve_reply_cache_misses_total %d\n", total.misses)
	fmt.Fprintf(w, "# HELP gbserve_reply_cache_evictions_total Replies dropped to keep a graph's cache under its byte cap (an epoch retiring is not an eviction).\n# TYPE gbserve_reply_cache_evictions_total counter\ngbserve_reply_cache_evictions_total %d\n", total.evictions)
	fmt.Fprintf(w, "# HELP gbserve_reply_cache_duplicate_misses_total Misses whose key another request stored before they finished.\n# TYPE gbserve_reply_cache_duplicate_misses_total counter\ngbserve_reply_cache_duplicate_misses_total %d\n", total.duplicateMisses)

	gauge := func(name, help string, value func(i int, g *graph) int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for i, g := range graphs {
			fmt.Fprintf(w, "%s{graph=%q} %d\n", name, g.name, value(i, g))
		}
	}
	gauge("gbserve_graph_epoch", "Committed epoch per graph.", func(_ int, g *graph) int {
		epoch, _ := g.servedEpoch()
		return int(epoch)
	})
	gauge("gbserve_reply_cache_bytes", "Body bytes held by the graph's reply cache.", func(i int, _ *graph) int { return bytes[i] })
	gauge("gbserve_reply_cache_entries", "Replies held by the graph's reply cache (one epoch's).", func(i int, _ *graph) int { return entries[i] })
	gauge("gbserve_scratch_outstanding", "Scratch-arena loans checked out on the graph's contexts.", func(_ int, g *graph) int { return g.base.ScratchOutstanding() })
	states, stateBytes := make([]int, len(graphs)), make([]int, len(graphs))
	for i, g := range graphs {
		states[i], stateBytes[i] = g.states.stats()
	}
	gauge("gbserve_sssp_states", "Sources whose SSSP distances the graph's state store holds.", func(i int, _ *graph) int { return states[i] })
	gauge("gbserve_sssp_state_bytes", "Distance bytes held by the graph's SSSP state store.", func(i int, _ *graph) int { return stateBytes[i] })
}
