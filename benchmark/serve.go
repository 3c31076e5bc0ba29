package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algorithms"
	"repro/internal/sparse"
)

// The two serve workloads: the built gbserve binary as a subprocess on a
// loopback port, driven over real HTTP by one open-loop phase (latency) and
// one closed-loop phase (capacity), with an optional seeded write stream.

const (
	hotN       = 2048 // hot = er:2048:16
	webScale   = 11   // web = rmat:11:16
	webEF      = 16
	servePool  = 64 // query sources per graph
	openRate   = 60.0
	openShare  = 0.6 // of the window; the rest is the closed loop
	openSend   = 8   // open-loop sender connections (they wait on I/O, not CPU)
	sloMS      = 100.0
	fullEvery  = 16
	rwReadRate = 50.0 // serve-rw read rate; writes ride on top
	writeRate  = 20.0 // mutate batches per second
	batchEdges = 256
	writePool  = 2048 // candidate edges the write stream draws from
	flushEvery = 4
)

// serveGraph is one graph the server loads, regenerated in-process.
type serveGraph struct {
	name, spec string
	a          *sparse.CSR[float64]
	sources    []int
}

func serveGraphs(seed int64) ([]*serveGraph, error) {
	s1 := subSeed(seed, "serve-hot") % 1_000_000_000
	s2 := subSeed(seed, "serve-web") % 1_000_000_000
	web, err := sparse.RMAT[float64](webScale, webEF, s2)
	if err != nil {
		return nil, err
	}
	gs := []*serveGraph{
		// ER takes a mean degree: gbserve's usage line calls it "density" and
		// its example er:4096:0.002:7 loads a near-empty graph.
		{name: "hot", spec: fmt.Sprintf("hot=er:%d:%d:%d", hotN, meanDegree, s1),
			a: sparse.ErdosRenyi[float64](hotN, meanDegree, s1)},
		{name: "web", spec: fmt.Sprintf("web=rmat:%d:%d:%d", webScale, webEF, s2), a: web},
	}
	for _, g := range gs {
		g.sources = pickSources(g.a, servePool, subSeed(seed, "serve-src-"+g.name))
	}
	return gs, nil
}

// graphRef memoizes the sequential references of one graph at one epoch.
type graphRef struct {
	a      *sparse.CSR[float64]
	bfs    map[int][]int64
	sssp   map[int][]float64
	ranks  []float64
	labels []int64
	tri    int64
	hasTri bool
}

func newGraphRef(a *sparse.CSR[float64]) *graphRef {
	return &graphRef{a: a, bfs: map[int][]int64{}, sssp: map[int][]float64{}}
}

// server is a running gbserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	logs   bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
	client *http.Client
}

// startServer picks a free loopback port, refuses to go on if something
// already answers there, starts gbserve and waits for /readyz. The caller
// must stop the returned server on every path.
func startServer(bin string, graphs []*serveGraph) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		_ = c.Close() // only probing
		return nil, fmt.Errorf("%s answers before gbserve was started: another server owns the port", addr)
	}
	args := []string{"-addr", addr, "-tenant-rate", "1000000", "-tenant-burst", "1000000"}
	for _, g := range graphs {
		args = append(args, "-graph", g.spec)
	}
	s := &server{
		cmd:  exec.Command(bin, args...),
		base: "http://" + addr,
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 2 * openSend, MaxIdleConnsPerHost: 2 * openSend, DisableCompression: true,
		}},
	}
	s.cmd.Stderr = &s.logs
	// If the benchmark is killed outright the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startPlaced(s.cmd); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a signalled server is not an error here
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("gbserve exited before it was ready:\n%s", s.logs.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gbserve not ready after 30s:\n%s", s.logs.String())
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after 15 s)
// and returns how long the drain took. Safe to call more than once.
func (s *server) stop() time.Duration {
	select {
	case <-s.done:
		return 0
	default:
	}
	t0 := time.Now()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.client.CloseIdleConnections()
	return time.Since(t0)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// do sends one request and reads the whole body.
func (s *server) do(method, path string, body []byte) (status int, hdr http.Header, out []byte, err error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// checkGraphs verifies that the server on the port is the one this run
// started: /graphs must list exactly our graphs with our edge counts.
func (s *server) checkGraphs(want map[string]int) error {
	status, _, body, err := s.do(http.MethodGet, "/graphs", nil)
	if err != nil {
		return fmt.Errorf("/graphs: %w", err)
	}
	var got struct {
		Graphs []struct {
			Name string `json:"name"`
			NNZ  int    `json:"nnz"`
		} `json:"graphs"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &got) != nil {
		return fmt.Errorf("/graphs: status %d, body %q", status, body)
	}
	if len(got.Graphs) != len(want) {
		return fmt.Errorf("/graphs lists %d graphs, want %d", len(got.Graphs), len(want))
	}
	for _, g := range got.Graphs {
		if nnz, ok := want[g.Name]; !ok || nnz != g.NNZ {
			return fmt.Errorf("/graphs: %q has %d edges, want %d (known: %v)", g.Name, g.NNZ, nnz, ok)
		}
	}
	return nil
}

// serverCounters reads the /metrics values the benchmark uses, summed over
// their label sets.
func (s *server) serverCounters() (map[string]float64, error) {
	status, _, body, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out
}

// query is one generated request.
type query struct {
	g      int // index into the session's graphs
	op     string
	source int
	body   []byte
}

// reply mirrors the fields of gbserve's query response the checker reads.
type reply struct {
	Graph     string    `json:"graph"`
	Op        string    `json:"op"`
	Epoch     uint64    `json:"epoch"`
	Batch     int       `json:"batch"`
	Levels    []int64   `json:"levels"`
	Parents   []int64   `json:"parents"`
	Dist      []float64 `json:"dist"`
	Ranks     []float64 `json:"ranks"`
	Labels    []int64   `json:"labels"`
	Triangles int64     `json:"triangles"`
	ModeledMS float64   `json:"modeled_ms"`
}

func newQuery(graphs []*serveGraph, g int, op string, source int) query {
	body := fmt.Sprintf(`{"graph":%q,"op":%q,"source":%d}`, graphs[g].name, op, source)
	return query{g: g, op: op, source: source, body: []byte(body)}
}

// genQueries draws the read mix: bfs 50 % (half per graph), sssp 20 % (hot
// only: every R-MAT graph has unreachable vertices, and gbserve answers an
// sssp with an unreachable vertex with an empty 200), pagerank 15 %, cc 15 %.
// triangles is probed but not mixed in: one 40-ms query in twenty made the
// latency tail swing between runs.
func genQueries(graphs []*serveGraph, count int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, count)
	for k := range qs {
		u := rng.Float64()
		g := rng.Intn(2)
		op := "cc"
		switch {
		case u < 0.50:
			op = "bfs"
		case u < 0.70:
			op, g = "sssp", 0
		case u < 0.85:
			op = "pagerank"
		}
		src := graphs[g].sources[rng.Intn(len(graphs[g].sources))]
		qs[k] = newQuery(graphs, g, op, src)
	}
	return qs
}

// checkReply is the cheap check every reply gets: status, a decodable
// non-empty body, the echoed graph and op, a result vector of n entries that
// is zero at the source, and an epoch header that matches the body.
func checkReply(q *query, graph string, n int, status int, epochHdr string, body []byte) (*reply, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", status, body)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, errors.New("200 with an empty body")
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("undecodable body: %w", err)
	}
	if r.Graph != graph || r.Op != q.op {
		return nil, fmt.Errorf("reply is for %s/%s, asked %s/%s", r.Graph, r.Op, graph, q.op)
	}
	if h, err := strconv.ParseUint(epochHdr, 10, 64); err != nil || h != r.Epoch {
		return nil, fmt.Errorf("X-GB-Epoch %q does not match body epoch %d", epochHdr, r.Epoch)
	}
	short := func(what string, got int) error {
		return fmt.Errorf("%s has %d entries, want %d", what, got, n)
	}
	switch q.op {
	case "bfs":
		if len(r.Levels) != n {
			return nil, short("levels", len(r.Levels))
		}
		if r.Levels[q.source] != 0 {
			return nil, fmt.Errorf("levels[source] = %d", r.Levels[q.source])
		}
	case "sssp":
		if len(r.Dist) != n {
			return nil, short("dist", len(r.Dist))
		}
		if r.Dist[q.source] != 0 {
			return nil, fmt.Errorf("dist[source] = %g", r.Dist[q.source])
		}
	case "pagerank":
		if len(r.Ranks) != n {
			return nil, short("ranks", len(r.Ranks))
		}
	case "cc":
		if len(r.Labels) != n {
			return nil, short("labels", len(r.Labels))
		}
	}
	return &r, nil
}

// fullCheck compares a reply with the sequential reference on ref's graph.
func fullCheck(q *query, r *reply, ref *graphRef) error {
	switch q.op {
	case "bfs":
		if ref.bfs[q.source] == nil {
			ref.bfs[q.source] = algorithms.RefBFS(ref.a, q.source)
		}
		// A coalesced run returns levels only: Parents is then nil.
		return checkBFS(ref.a, q.source, r.Levels, r.Parents, ref.bfs[q.source])
	case "sssp":
		if ref.sssp[q.source] == nil {
			ref.sssp[q.source] = algorithms.RefSSSP(ref.a, q.source)
		}
		return closeFloats("dist", r.Dist, ref.sssp[q.source], 0)
	case "pagerank":
		if ref.ranks == nil {
			ref.ranks, _ = refPageRank(ref.a, prDamping, prTol, prMaxIter)
		}
		return closeFloats("ranks", r.Ranks, ref.ranks, 1e-9)
	case "cc":
		if ref.labels == nil {
			ref.labels = refCC(ref.a)
		}
		return equalInt64s("labels", r.Labels, ref.labels)
	case "triangles":
		if !ref.hasTri {
			ref.tri, ref.hasTri = refTriangles(ref.a), true
		}
		if r.Triangles != ref.tri {
			return fmt.Errorf("triangles = %d, want %d", r.Triangles, ref.tri)
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", q.op)
}

// sample is one request as the load generator saw it. Offsets are from the
// start of its phase.
type sample struct {
	q        *query
	due      time.Duration // when the request was scheduled to be sent
	start    time.Duration // when it was sent
	end      time.Duration // when the whole reply had been read
	decode   time.Duration
	bytes    int
	shed     bool
	stale    bool
	batch    int
	modeled  float64
	err      error
	fullWant *reply // kept for the post-window full comparison
}

// session is one started server plus everything needed to check it.
type session struct {
	srv    *server
	graphs []*serveGraph
	// tr receives the query spans; it is switched only between phases, when
	// no sender runs (the write stream carries its own reference).
	tr  *spanLog
	ops atomic.Int64 // op ids for spans
}

// send issues q, reads the reply, stamps the end, then decodes and checks.
// due is the request's scheduled offset from t0; lastEpoch is the sender's
// per-graph high-water mark (replies to one sender never go back in time).
func (s *session) send(q *query, t0 time.Time, due time.Duration, lastEpoch []uint64, keepFull bool) sample {
	smp := sample{q: q, due: due}
	op := int(s.ops.Add(1))
	tStart := time.Now()
	smp.start = tStart.Sub(t0)
	status, hdr, body, err := s.srv.do(http.MethodPost, "/query", q.body)
	tEnd := time.Now()
	smp.end = tEnd.Sub(t0)
	smp.bytes = len(body)
	root := s.tr.reserve("query."+q.op, 0, op, tStart)
	s.tr.add("http.roundtrip", root, op, tStart, tEnd)
	if err != nil {
		smp.err = err
		s.tr.finish(root, tEnd)
		return smp
	}
	smp.shed = status == http.StatusTooManyRequests
	g := s.graphs[q.g]
	r, err := checkReply(q, g.name, g.a.NRows, status, hdr.Get("X-GB-Epoch"), body)
	tDec := time.Now()
	smp.decode = tDec.Sub(tEnd)
	s.tr.add("client.decode", root, op, tEnd, tDec)
	s.tr.finish(root, tDec)
	if err != nil {
		smp.err = err
		return smp
	}
	smp.stale = hdr.Get("X-GB-Stale") == "true"
	smp.batch, smp.modeled = r.Batch, r.ModeledMS
	if r.Epoch < lastEpoch[q.g] {
		smp.err = fmt.Errorf("epoch went back from %d to %d", lastEpoch[q.g], r.Epoch)
		return smp
	}
	lastEpoch[q.g] = r.Epoch
	if keepFull {
		smp.fullWant = r
	}
	return smp
}

// openLoop sends queries[k] at k/rate seconds whatever the replies do: a
// fixed pool of senders takes the next index, sleeps until it is due and
// sends. A sender that frees up late starts late, and the latency — counted
// from the due instant — shows it.
func (s *session) openLoop(ctx context.Context, queries []query, rate float64, senders int) []sample {
	out := make([]sample, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastEpoch := make([]uint64, len(s.graphs))
			for {
				k := int(next.Add(1) - 1)
				if k >= len(queries) || ctx.Err() != nil {
					return
				}
				due := time.Duration(float64(k) / rate * float64(time.Second))
				if wait := time.Until(t0.Add(due)); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				out[k] = s.send(&queries[k], t0, due, lastEpoch, k%fullEvery == 0)
			}
		}()
	}
	wg.Wait()
	return out // complete unless ctx was cancelled, which the caller checks
}

// closedLoop runs clients callers, each sending its next query as soon as
// the previous reply is checked, for dur.
func (s *session) closedLoop(ctx context.Context, clients int, dur time.Duration, seed int64) []sample {
	outs := make([][]sample, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := genQueries(s.graphs, 4096, subSeed(seed, fmt.Sprintf("closed-%d", c)))
			lastEpoch := make([]uint64, len(s.graphs))
			for k := 0; time.Since(t0) < dur && ctx.Err() == nil; k++ {
				smp := s.send(&qs[k%len(qs)], t0, time.Since(t0), lastEpoch, k%fullEvery == 0)
				outs[c] = append(outs[c], smp)
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// writeBatch is one seeded mutate batch.
type writeBatch struct {
	rows, cols []int
	body       []byte
}

// genBatches draws every batch from a fixed pool of writePool candidate
// edges: after the first few batches a write overwrites more often than it
// inserts, so the graph stops growing and the read latencies of a run come
// from one distribution (with fresh random edges hot tripled in 20 s and the
// tail latency followed how far into the run a query fell).
func genBatches(n, count int, seed int64) []writeBatch {
	rng := rand.New(rand.NewSource(seed))
	poolRows, poolCols := make([]int, writePool), make([]int, writePool)
	for k := range poolRows {
		poolRows[k], poolCols[k] = rng.Intn(n), rng.Intn(n)
	}
	out := make([]writeBatch, count)
	vals := ones(batchEdges)
	for b := range out {
		rows, cols := make([]int, batchEdges), make([]int, batchEdges)
		for k := range rows {
			e := rng.Intn(writePool)
			rows[k], cols[k] = poolRows[e], poolCols[e]
		}
		body, _ := json.Marshal(map[string]any{"rows": rows, "cols": cols, "vals": vals}) // ints and floats always marshal
		out[b] = writeBatch{rows: rows, cols: cols, body: body}
	}
	return out
}

// writerStats is what the write stream measured.
type writerStats struct {
	mutateMS, flushMS []float64
	sent              int // batches acknowledged, in order
	epochs            int // flushes that committed
	elapsed           time.Duration
	failures
}

// runWriter sends batch b at b/writeRate seconds, in order, on one
// connection, and flushes after every flushEvery-th batch — so the graph at
// epoch e is the initial one plus the first e*flushEvery batches, in every
// run. It stops when ctx is done.
func (s *session) runWriter(ctx context.Context, graph string, batches []writeBatch, tr *spanLog) *writerStats {
	st := &writerStats{}
	t0 := time.Now()
	for b := range batches {
		due := t0.Add(time.Duration(float64(b) / writeRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		t := time.Now()
		status, _, body, err := s.srv.do(http.MethodPost, "/graphs/"+graph+"/mutate", batches[b].body)
		tr.add("mutate", 0, 0, t, time.Now())
		if err != nil || status != http.StatusOK {
			st.fail(fmt.Errorf("mutate batch %d: status %d: %v %.80s", b, status, err, body))
			break // the epoch contents would no longer follow the schedule
		}
		st.mutateMS = append(st.mutateMS, msOf(time.Since(t)))
		st.sent++
		if st.sent%flushEvery == 0 {
			if err := s.flush(graph, st, tr); err != nil {
				st.fail(err)
				break
			}
		}
	}
	st.elapsed = time.Since(t0)
	return st
}

// flush commits the staged mutations and records the latency.
func (s *session) flush(graph string, st *writerStats, tr *spanLog) error {
	t := time.Now()
	status, _, body, err := s.srv.do(http.MethodPost, "/graphs/"+graph+"/flush", nil)
	tr.add("flush", 0, 0, t, time.Now())
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("flush: status %d: %v %.80s", status, err, body)
	}
	st.flushMS = append(st.flushMS, msOf(time.Since(t)))
	st.epochs++
	return nil
}

// epochGraphs rebuilds the hot graph at any epoch of the write schedule.
type epochGraphs struct {
	base    *sparse.CSR[float64]
	batches []writeBatch
	refs    map[uint64]*graphRef
}

// at returns the reference holder for the graph at epoch e: the base plus the
// first e*flushEvery batches, later writes overwriting earlier ones.
func (eg *epochGraphs) at(e uint64) (*graphRef, error) {
	if r, ok := eg.refs[e]; ok {
		return r, nil
	}
	nb := int(e) * flushEvery
	if nb > len(eg.batches) {
		return nil, fmt.Errorf("epoch %d is beyond the write schedule", e)
	}
	a, err := applyBatches(eg.base, eg.batches[:nb])
	if err != nil {
		return nil, err
	}
	r := newGraphRef(a)
	eg.refs[e] = r
	return r, nil
}

// applyBatches returns base with every edge of the batches set to weight 1.
func applyBatches(base *sparse.CSR[float64], batches []writeBatch) (*sparse.CSR[float64], error) {
	n := base.NCols
	edges := make(map[int]float64, base.NNZ()+len(batches)*batchEdges)
	for i := 0; i < base.NRows; i++ {
		cols, vals := base.Row(i)
		for k, j := range cols {
			edges[i*n+j] = vals[k]
		}
	}
	for _, b := range batches {
		for k := range b.rows {
			edges[b.rows[k]*n+b.cols[k]] = 1
		}
	}
	rows, cols, vals := make([]int, 0, len(edges)), make([]int, 0, len(edges)), make([]float64, 0, len(edges))
	for key, v := range edges {
		rows, cols, vals = append(rows, key/n), append(cols, key%n), append(vals, v)
	}
	return sparse.CSRFromTriplets(base.NRows, n, rows, cols, vals)
}
