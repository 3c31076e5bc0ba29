package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/gb"
)

// HTTP surface. One mux, JSON in and out:
//
//	POST /query                  run a graph query (X-Tenant header names the tenant)
//	GET  /graphs                 list loaded graphs
//	POST /graphs/{name}/mutate   stage updates/deletes on a graph
//	POST /graphs/{name}/flush    commit staged mutations as a new epoch
//	GET  /healthz                liveness (always 200 while the process runs)
//	GET  /readyz                 readiness (503 while draining or empty)
//	GET  /metrics                Prometheus text: gbserve_* + gb_op_* counters
//
// Status codes carry the robustness envelope: 413 for a request body over
// the limit, 429 + Retry-After when admission sheds, 499 when the client went
// away mid-query, 503 while draining, 504 when the modeled budget expired.
// Every query response carries X-GB-Epoch and X-GB-Stale headers naming the
// snapshot it was served from, and every fault-free one X-GB-Cache: hit when
// the body came from the reply cache (cache.go), miss when a run computed it.
// An sssp miss also carries X-GB-SSSP-Start: warm when its run started from
// the source's stored distances (sssp.go), cold when it started from scratch.

// statusClientClosed is nginx's "client closed request" — the conventional
// code for a query aborted because its requester stopped waiting.
const statusClientClosed = 499

// Request bodies are read through http.MaxBytesReader: a query is a few
// fields, a mutation batch three parallel arrays. Constants, not knobs.
const (
	maxQueryBody  = 1 << 20
	maxMutateBody = 64 << 20
)

// queryRequest is the POST /query body.
type queryRequest struct {
	Graph  string `json:"graph"`
	Op     string `json:"op"` // bfs | sssp | pagerank | cc | triangles
	Source int    `json:"source"`

	// TimeoutMS bounds wall-clock time (default Config.DefaultTimeout);
	// BudgetMS bounds modeled time (default Config.DefaultBudgetNS).
	TimeoutMS int     `json:"timeout_ms"`
	BudgetMS  float64 `json:"budget_ms"`

	// ChaosSeed > 0 runs the query on an isolated context under the standard
	// chaos plan; CrashLocale (optional) additionally kills that locale at
	// CrashStep, recovered per ChaosPolicy (default the server's policy).
	ChaosSeed   int64  `json:"chaos_seed"`
	ChaosPolicy string `json:"chaos_policy"` // redistribute | failover | besteffort
	CrashLocale *int   `json:"crash_locale"`
	CrashStep   int64  `json:"crash_step"`

	// PageRank knobs (defaults 0.85, 1e-6, 100).
	Damping float64 `json:"damping"`
	Tol     float64 `json:"tol"`
	MaxIter int     `json:"max_iter"`
}

// queryResponse is the POST /query result; op-specific fields are omitted
// when empty.
type queryResponse struct {
	Graph string `json:"graph"`
	Op    string `json:"op"`
	Epoch uint64 `json:"epoch"`
	Stale bool   `json:"stale,omitempty"`

	Rounds int `json:"rounds,omitempty"`
	Batch  int `json:"batch,omitempty"` // BFS: how many requests its MSBFS run served

	Levels     []int64      `json:"levels,omitempty"`
	Parents    []int64      `json:"parents,omitempty"` // chaos BFS only
	Dist       nullableDist `json:"dist,omitempty"`    // null = unreachable
	Ranks      []float64    `json:"ranks,omitempty"`
	Labels     []int64      `json:"labels,omitempty"`
	Components int          `json:"components,omitempty"`
	Triangles  int64        `json:"triangles,omitempty"`

	ModeledMS  float64 `json:"modeled_ms"`
	Recoveries int     `json:"recoveries,omitempty"`
	BestEffort bool    `json:"best_effort,omitempty"`
	// FaultSteps is how many fault-plan draws the chaos run made — the unit
	// crash_step counts in (clients probe with no crash, then aim inside).
	FaultSteps int64 `json:"fault_steps,omitempty"`

	// ssspStart is "warm" or "cold" on a fault-free sssp run: whether its
	// relaxation started from a stored state (sssp.go). A header, not a body
	// field, so a cached body is the same whichever start computed it.
	ssspStart string
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /graphs", s.handleGraphs)
	mux.HandleFunc("POST /graphs/{name}/mutate", s.handleMutate)
	mux.HandleFunc("POST /graphs/{name}/flush", s.handleFlush)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": time.Since(s.started).Seconds()})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.writeMetrics(w)
	})
	return mux
}

// writeJSON encodes v before committing the status line, so a value JSON
// cannot represent (a NaN, say) becomes a logged 500 instead of a 200 with
// an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, ok := encodeJSON(v)
	if !ok {
		status = http.StatusInternalServerError
	}
	writeBody(w, status, body)
}

// encodeJSON returns v's JSON body; when v has none it logs why and returns
// the error body to send with a 500 instead.
func encodeJSON(v any) (body []byte, ok bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("serve: encoding a %T response: %v", v, err)
		buf.Reset()
		// A map of strings always encodes.
		_ = json.NewEncoder(&buf).Encode(map[string]string{"error": "encoding the response: " + err.Error()})
		return buf.Bytes(), false
	}
	return buf.Bytes(), true
}

// writeBody sends an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client has gone
}

// decodeBody decodes a request body of at most limit bytes into v, answering
// 413 for a longer one and 400 for one that is not the JSON expected.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad body: %v", err)
	}
	return err == nil
}

// nullableDist is a vector of SSSP distances on its way into JSON, which has
// no infinity: an unreachable vertex (+Inf) encodes as null, every other
// distance exactly as encoding/json writes a float64.
type nullableDist []float64

func (d nullableDist) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 8*len(d)+2)
	b = append(b, '[')
	for i, f := range d {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case math.IsInf(f, 1):
			b = append(b, "null"...)
		case math.IsInf(f, -1) || math.IsNaN(f):
			return nil, fmt.Errorf("serve: distance %v of vertex %d has no JSON encoding", f, i)
		default:
			b = appendJSONFloat(b, f)
		}
	}
	return append(b, ']'), nil
}

// appendJSONFloat appends f the way encoding/json's float64 encoder does (the
// ES6 number-to-string conversion): shortest round-trip digits, exponent form
// below 1e-6 and from 1e21, the exponent without a leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func shed(w http.ResponseWriter, retryAfter time.Duration, reason string) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, "shed: %s", reason)
}

// handleReady reads each graph's published epoch, not its mutex: a readiness
// probe does not queue behind a flush.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	epochs := map[string]uint64{}
	for _, g := range s.graphNames() {
		epochs[g.name], _ = g.servedEpoch()
	}
	body := map[string]any{
		"ready":     s.Ready(),
		"draining":  s.Draining(),
		"graphs":    epochs,
		"in_flight": s.limit.inFlight(),
	}
	if s.Ready() {
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	type graphInfo struct {
		Name    string `json:"name"`
		Rows    int    `json:"rows"`
		Cols    int    `json:"cols"`
		NNZ     int    `json:"nnz"`
		Epoch   uint64 `json:"epoch"`
		Pending int    `json:"pending"`
		Stale   bool   `json:"stale,omitempty"`
	}
	out := []graphInfo{}
	for _, g := range s.graphNames() {
		g.mu.Lock()
		out = append(out, graphInfo{
			Name: g.name, Rows: g.stream.NRows(), Cols: g.stream.NCols(),
			NNZ: g.stream.NNZ(), Epoch: g.stream.Epoch(),
			Pending: g.stream.Pending(), Stale: g.stream.Stale(),
		})
		g.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	g := s.graphByName(r.PathValue("name"))
	if g == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("name"))
		return
	}
	var req struct {
		Rows    []int     `json:"rows"`
		Cols    []int     `json:"cols"`
		Vals    []float64 `json:"vals"`
		DelRows []int     `json:"del_rows"`
		DelCols []int     `json:"del_cols"`
	}
	if !decodeBody(w, r, maxMutateBody, &req) {
		return
	}
	if len(req.Rows) != len(req.Cols) || len(req.Rows) != len(req.Vals) {
		writeError(w, http.StatusBadRequest, "rows/cols/vals lengths differ: %d/%d/%d", len(req.Rows), len(req.Cols), len(req.Vals))
		return
	}
	if len(req.DelRows) != len(req.DelCols) {
		writeError(w, http.StatusBadRequest, "del_rows/del_cols lengths differ: %d/%d", len(req.DelRows), len(req.DelCols))
		return
	}
	if err := g.mutate(req.Rows, req.Cols, req.Vals, req.DelRows, req.DelCols); err != nil {
		writeError(w, http.StatusBadRequest, "mutate: %v", err)
		return
	}
	g.mu.Lock()
	pending := g.stream.Pending()
	epoch := g.stream.Epoch()
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"pending": pending, "epoch": epoch})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	g := s.graphByName(r.PathValue("name"))
	if g == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("name"))
		return
	}
	epoch, stale, err := g.flush()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "flush: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "stale": stale})
}

var validOps = map[string]bool{"bfs": true, "sssp": true, "pagerank": true, "cc": true, "triangles": true}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	var req queryRequest
	if !decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	if !validOps[req.Op] {
		writeError(w, http.StatusBadRequest, "unknown op %q (want bfs|sssp|pagerank|cc|triangles)", req.Op)
		return
	}
	g := s.graphByName(req.Graph)
	if g == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", req.Graph)
		return
	}
	if req.Op != "cc" && req.Op != "triangles" && req.Op != "pagerank" {
		if n := g.stream.NRows(); req.Source < 0 || req.Source >= n {
			writeError(w, http.StatusBadRequest, "source %d outside graph of %d vertices", req.Source, n)
			return
		}
	}
	if req.chaos() {
		if _, err := s.chaosPolicy(req.ChaosPolicy); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// Admission: the tenant's token bucket first, then the global limiter.
	now := time.Now()
	if ok, retry := s.tenants.bucket(tenant, now).take(now); !ok {
		s.met.noteShed(tenant)
		shed(w, retry, "tenant rate limit")
		return
	}
	if ok, retry := s.limit.acquire(r.Context()); !ok {
		s.met.noteShed(tenant)
		shed(w, retry, "service at capacity")
		return
	}
	defer s.limit.release()
	s.inflight.Add(1)
	defer s.inflight.Done()

	budgetNS := s.cfg.DefaultBudgetNS
	if req.BudgetMS > 0 {
		budgetNS = req.BudgetMS * 1e6
	}

	// The reply cache, after admission — a hit is still a query the tenant is
	// charged for and Drain waits for — and without the graph mutex. Chaos
	// queries neither read nor fill it: they exist to exercise recovery.
	start := time.Now()
	cacheable := !req.chaos()
	var key replyKey
	if cacheable {
		key = g.replyKey(&req)
		if hit, ok := g.replies.get(key); ok {
			s.serveHit(w, tenant, req.Op, key, hit, budgetNS, start)
			return
		}
		w.Header().Set("X-GB-Cache", "miss")
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	resp, err := s.runQuery(ctx, g, &req, budgetNS)
	elapsed := time.Since(start)
	if err != nil {
		s.queryFailed(w, tenant, req.Op, err, elapsed)
		return
	}
	s.met.noteQuery(tenant, req.Op, outcomeOK, elapsed.Seconds())
	snapshotHeaders(w, resp.Epoch, resp.Stale)
	if resp.BestEffort {
		w.Header().Set("X-GB-BestEffort", "true")
	}
	if resp.ssspStart != "" {
		w.Header().Set("X-GB-SSSP-Start", resp.ssspStart)
	}
	body, ok := encodeJSON(resp)
	if !ok {
		writeBody(w, http.StatusInternalServerError, body)
		return
	}
	writeBody(w, http.StatusOK, body)
	if cacheable {
		// Under the epoch the run was served from, not the one looked up: a
		// flush may have landed in between.
		key.epoch, key.stale = resp.Epoch, resp.Stale
		g.replies.put(key, body, resp.ModeledMS)
	}
}

// serveHit answers a query from the reply cache: the stored bytes under the
// snapshot headers of the key they were stored under. budget_ms bounds the
// modeled cost of the answer whichever request paid it, so a hit over the
// budget is the typed 504 a run would have been.
func (s *Server) serveHit(w http.ResponseWriter, tenant, op string, key replyKey, hit cachedReply, budgetNS float64, start time.Time) {
	w.Header().Set("X-GB-Cache", "hit")
	if budgetNS > 0 && hit.modeledMS*1e6 > budgetNS {
		s.queryFailed(w, tenant, op, fmt.Errorf("serve: the answer took %g modeled ms to compute, over this request's budget of %g ms: %w",
			hit.modeledMS, budgetNS/1e6, gb.ErrDeadlineExceeded), time.Since(start))
		return
	}
	s.met.noteQuery(tenant, op, outcomeOK, time.Since(start).Seconds())
	snapshotHeaders(w, key.epoch, key.stale)
	writeBody(w, http.StatusOK, hit.body)
}

// snapshotHeaders names the snapshot a reply was served from.
func snapshotHeaders(w http.ResponseWriter, epoch uint64, stale bool) {
	w.Header().Set("X-GB-Epoch", strconv.FormatUint(epoch, 10))
	w.Header().Set("X-GB-Stale", strconv.FormatBool(stale))
}

// queryFailed writes a query's typed failure and counts its outcome.
func (s *Server) queryFailed(w http.ResponseWriter, tenant, op string, err error, elapsed time.Duration) {
	status, outcome := http.StatusInternalServerError, outcomeError
	switch {
	case errors.Is(err, gb.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		status, outcome = http.StatusGatewayTimeout, outcomeDeadline
	case errors.Is(err, gb.ErrQueryCanceled) || errors.Is(err, context.Canceled):
		status, outcome = statusClientClosed, outcomeCanceled
	}
	s.met.noteQuery(tenant, op, outcome, elapsed.Seconds())
	writeError(w, status, "%s: %v", op, err)
}

// chaos reports whether the request carries a fault plan.
func (r *queryRequest) chaos() bool { return r.ChaosSeed > 0 || r.CrashLocale != nil }

// pagerankParams returns the PageRank parameters the request means: what it
// set, or the defaults (0.85, 1e-6, 100) where it set nothing usable.
func (r *queryRequest) pagerankParams() (damping, tol float64, maxIter int) {
	damping, tol, maxIter = r.Damping, r.Tol, r.MaxIter
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	return damping, tol, maxIter
}

// replyKey is the cache key of a fault-free request against what g serves
// now: only the fields its op reads, so requests that mean the same share it.
func (g *graph) replyKey(req *queryRequest) replyKey {
	k := replyKey{op: req.Op}
	k.epoch, k.stale = g.servedEpoch()
	switch req.Op {
	case "bfs", "sssp":
		k.source = req.Source
	case "pagerank":
		k.damping, k.tol, k.maxIter = req.pagerankParams()
	}
	return k
}

// runQuery dispatches one admitted query: the chaos path (isolated context),
// the BFS batcher, or a run of its own on a derived context.
func (s *Server) runQuery(ctx context.Context, g *graph, req *queryRequest, budgetNS float64) (*queryResponse, error) {
	if req.chaos() {
		return s.runChaos(ctx, g, req, budgetNS)
	}
	if req.Op == "bfs" {
		select {
		case out := <-s.joinBFS(g, ctx, req.Source, budgetNS):
			if out.err != nil {
				return nil, out.err
			}
			return &queryResponse{
				Graph: g.name, Op: req.Op, Epoch: out.epoch, Stale: out.stale,
				Rounds: out.rounds, Batch: out.batch, Levels: out.levels, ModeledMS: out.ms,
			}, nil
		case <-ctx.Done():
			// The batch runs on without this request (and leaves it out if it
			// has not started); the slot is free for someone still waiting.
			return nil, ctx.Err()
		}
	}

	qc, m, epoch, stale, release := s.deriveQuery(g, ctx, budgetNS)
	defer release()
	resp := &queryResponse{Graph: g.name, Op: req.Op, Epoch: epoch, Stale: stale}
	t0 := qc.Elapsed()
	var err error
	if req.Op == "sssp" {
		err = s.runSSSP(g, m, req.Source, resp)
	} else {
		err = runOp(qc, m, req, resp)
	}
	if err != nil {
		return nil, err
	}
	resp.ModeledMS = (qc.Elapsed() - t0) * 1e3
	return resp, nil
}

// runSSSP answers a fault-free sssp with gb.IncrementalSSSP from the source's
// stored state, and stores the result as the source's state. A stale snapshot
// neither reads nor fills the store, and runs cold.
func (s *Server) runSSSP(g *graph, m *gb.Matrix[float64], source int, resp *queryResponse) error {
	var prev *gb.SSSPState[float64]
	if !resp.Stale {
		prev = g.states.get(source)
	}
	st, err := gb.IncrementalSSSP(m, source, prev)
	if err != nil {
		return err
	}
	if !resp.Stale {
		g.states.put(st)
	}
	resp.Dist, resp.Rounds, resp.ssspStart = st.Dist, st.Rounds, "cold"
	if st.Warm {
		resp.ssspStart = "warm"
	}
	s.met.noteSSSP(st.Warm, st.Rounds)
	return nil
}

// runOp executes the op on the given context-bound matrix, filling resp.
func runOp(qc *gb.Context, m *gb.Matrix[float64], req *queryRequest, resp *queryResponse) error {
	switch req.Op {
	case "bfs":
		res, err := gb.BFS(qc, m, req.Source)
		if err != nil {
			return err
		}
		resp.Levels, resp.Parents, resp.Rounds = res.Level, res.Parent, res.Rounds
	case "sssp":
		dist, rounds, err := gb.SSSP(m, req.Source)
		if err != nil {
			return err
		}
		resp.Dist, resp.Rounds = dist, rounds
	case "pagerank":
		d, tol, iters := req.pagerankParams()
		ranks, rounds, err := gb.PageRank(m, d, tol, iters)
		if err != nil {
			return err
		}
		resp.Ranks, resp.Rounds = ranks, rounds
	case "cc":
		labels, n, err := gb.ConnectedComponents(m)
		if err != nil {
			return err
		}
		resp.Labels, resp.Components = labels, n
	case "triangles":
		t, err := gb.TriangleCount(m)
		if err != nil {
			return err
		}
		resp.Triangles = t
	default:
		return fmt.Errorf("serve: unknown op %q", req.Op)
	}
	return nil
}

// chaosPolicy resolves a request's chaos_policy; unset means the server's.
func (s *Server) chaosPolicy(name string) (gb.RecoveryPolicy, error) {
	switch name {
	case "":
		return s.cfg.Policy, nil
	case "redistribute":
		return gb.Redistribute, nil
	case "failover":
		return gb.Failover, nil
	case "besteffort":
		return gb.BestEffort, nil
	}
	return s.cfg.Policy, fmt.Errorf("serve: unknown chaos_policy %q (want redistribute|failover|besteffort)", name)
}

// runChaos serves a query under fault injection on a fully isolated context:
// the committed epoch is gathered to a local CSR and redistributed on a fresh
// grid, because crash recovery mutates the grid (locale adoption) and must
// never leak into the shared base context's fault-free queries.
func (s *Server) runChaos(ctx context.Context, g *graph, req *queryRequest, budgetNS float64) (*queryResponse, error) {
	policy, err := s.chaosPolicy(req.ChaosPolicy)
	if err != nil {
		return nil, err // handleQuery has already refused it
	}
	plan := gb.StandardChaosPlan(req.ChaosSeed)
	if req.CrashLocale != nil {
		plan.CrashLocale = *req.CrashLocale
		plan.CrashStep = req.CrashStep
		if plan.CrashStep <= 0 {
			plan.CrashStep = 25
		}
	}

	csr, epoch, stale, err := s.snapshotCSR(g, ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: chaos snapshot: %w", err)
	}
	opts := []gb.Option{
		gb.Locales(s.cfg.Locales), gb.Threads(s.cfg.Threads),
		gb.WithRecoveryPolicy(policy), plan,
	}
	if s.cfg.Replicate || policy == gb.Failover {
		opts = append(opts, gb.WithReplication())
	}
	cc, err := gb.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: chaos context: %w", err)
	}
	qc := cc.WithCancelContext(ctx)
	if budgetNS > 0 {
		qc = qc.WithModeledDeadline(budgetNS)
	}
	m := gb.MatrixFromCSR(qc, csr)

	resp := &queryResponse{Graph: g.name, Op: req.Op, Epoch: epoch, Stale: stale}
	t0 := qc.Elapsed()
	if err := runOp(qc, m, req, resp); err != nil {
		return nil, err
	}
	resp.ModeledMS = (qc.Elapsed() - t0) * 1e3
	resp.FaultSteps = qc.FaultStats().Steps
	resp.Recoveries = len(qc.Recoveries())
	resp.BestEffort = policy == gb.BestEffort && resp.Recoveries > 0
	resp.Stale = resp.Stale || resp.BestEffort
	return resp, nil
}
