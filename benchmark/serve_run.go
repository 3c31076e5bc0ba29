package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/algorithms"
)

// A serve run: set-up (start, ready, probe pass), a list of load phases, the
// post-window full comparisons, and the teardown.

type phaseKind int

const (
	openPhase phaseKind = iota
	closedPhase
)

// phase is one stretch of load.
type phase struct {
	kind   phaseKind
	dur    time.Duration
	rate   float64 // open loop: requests per second
	writes bool    // the write stream runs during this phase
	spans  bool    // record benchmark-side spans (traced runs)
}

type phaseResult struct {
	phase
	samples []sample
	cpu     time.Duration // server CPU spent during the phase
}

type serveConfig struct {
	bin       string
	seed      int64
	setups    int // how many times set-up runs (the last server is kept)
	probeReps int // unloaded repetitions of every op in the kept probe pass
	clients   int // closed-loop callers
	phases    []phase
	tr        *spanLog
}

type serveResult struct {
	setupS    []float64
	probeMS   map[string][]float64 // "graph/op" -> unloaded latencies
	modeledMS []float64            // modeled_ms of every probe reply
	phases    []phaseResult
	writer    *writerStats
	before    map[string]float64 // /metrics before and after the phases
	after     map[string]float64
	peakRSSMB float64
	drainS    float64
	attempted int
	failures
}

// probeOps is the order of the sequential probe pass.
var probeOps = []string{"bfs", "sssp", "pagerank", "cc", "triangles"}

// probe sends every op on every graph once, sequentially, and compares each
// reply in full. sssp runs on hot only (see genQueries).
func (s *session) probe(refs []*graphRef, res *serveResult) error {
	lastEpoch := make([]uint64, len(s.graphs))
	for g, sg := range s.graphs {
		for _, op := range probeOps {
			if op == "sssp" && g != 0 {
				continue
			}
			q := newQuery(s.graphs, g, op, sg.sources[0])
			smp := s.send(&q, time.Now(), 0, lastEpoch, true)
			res.attempted++
			if smp.err == nil {
				smp.err = fullCheck(&q, smp.fullWant, refs[g])
			}
			if smp.err != nil {
				return fmt.Errorf("probe %s/%s: %w", sg.name, op, smp.err)
			}
			key := sg.name + "/" + op
			res.probeMS[key] = append(res.probeMS[key], msOf(smp.end-smp.start))
			res.modeledMS = append(res.modeledMS, smp.modeled)
		}
	}
	return nil
}

// runServe executes one serve run. Every path out stops the server it
// started and waits for it.
func runServe(ctx context.Context, cfg serveConfig) (*serveResult, error) {
	graphs, err := serveGraphs(cfg.seed)
	if err != nil {
		return nil, err
	}
	hot := graphs[0]
	refs := []*graphRef{newGraphRef(hot.a), newGraphRef(graphs[1].a)}
	// gbserve cannot encode +Inf: an sssp that leaves a vertex unreached
	// comes back as a 200 with an empty body. The workload must not contain
	// an op that fails, so refuse such a graph up front.
	for _, src := range hot.sources {
		d := algorithms.RefSSSP(hot.a, src)
		for v, x := range d {
			if math.IsInf(x, 1) {
				return nil, fmt.Errorf("seed %d: hot has vertex %d unreachable from source %d; sssp cannot be served on it", cfg.seed, v, src)
			}
		}
		refs[0].sssp[src] = d
	}
	wantNNZ := map[string]int{}
	for _, g := range graphs {
		wantNNZ[g.name] = g.a.NNZ()
	}

	res := &serveResult{probeMS: map[string][]float64{}}
	var sess *session
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		srv, err := startServer(cfg.bin, graphs)
		if err != nil {
			return nil, err
		}
		sess = &session{srv: srv, graphs: graphs, tr: cfg.tr}
		if err := srv.checkGraphs(wantNNZ); err != nil {
			srv.stop()
			return nil, err
		}
		if err := sess.probe(refs, res); err != nil {
			srv.stop()
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			srv.stop()
		}
	}
	srv := sess.srv
	defer srv.stop()
	for i := 1; i < cfg.probeReps; i++ {
		if err := sess.probe(refs, res); err != nil {
			return nil, err
		}
	}

	var total time.Duration
	for _, p := range cfg.phases {
		total += p.dur
	}
	eg := &epochGraphs{
		base:    hot.a,
		batches: genBatches(hot.a.NRows, int(math.Ceil((total.Seconds()+10)*writeRate)), subSeed(cfg.seed, "writes")),
		refs:    map[uint64]*graphRef{0: refs[0]},
	}
	if res.before, err = srv.serverCounters(); err != nil {
		return nil, err
	}

	// The write stream spans every consecutive phase that asks for it.
	var stopWriter context.CancelFunc
	var writerDone chan *writerStats
	endWriter := func() {
		if stopWriter == nil {
			return
		}
		stopWriter()
		res.writer = <-writerDone
		stopWriter = nil
	}
	defer endWriter()
	for k, p := range cfg.phases {
		if p.writes && stopWriter == nil && res.writer == nil {
			wctx, cancel := context.WithCancel(ctx)
			stopWriter, writerDone = cancel, make(chan *writerStats, 1)
			go func() { writerDone <- sess.runWriter(wctx, hot.name, eg.batches, cfg.tr) }()
		}
		if !p.writes {
			endWriter()
		}
		sess.tr = nil
		if p.spans {
			sess.tr = cfg.tr
		}
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		pr := phaseResult{phase: p}
		switch p.kind {
		case openPhase:
			qs := genQueries(graphs, int(p.rate*p.dur.Seconds()), subSeed(cfg.seed, fmt.Sprintf("open-%d", k)))
			pr.samples = sess.openLoop(ctx, qs, p.rate, openSend)
		case closedPhase:
			pr.samples = sess.closedLoop(ctx, cfg.clients, p.dur, subSeed(cfg.seed, fmt.Sprintf("closed-%d", k)))
		}
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		pr.cpu = cpu1 - cpu0
		res.phases = append(res.phases, pr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	endWriter()
	if res.after, err = srv.serverCounters(); err != nil {
		return nil, err
	}
	if res.peakRSSMB, err = procPeakRSSMB(srv.pid()); err != nil {
		return nil, err
	}

	// Post-window: count the failures and run the kept full comparisons.
	for pi := range res.phases {
		for si := range res.phases[pi].samples {
			smp := &res.phases[pi].samples[si]
			res.attempted++
			if smp.err == nil && smp.fullWant != nil {
				ref := refs[smp.q.g]
				if smp.q.g == 0 {
					if ref, err = eg.at(smp.fullWant.Epoch); err != nil {
						smp.err = err
					}
				}
				if smp.err == nil {
					smp.err = fullCheck(smp.q, smp.fullWant, ref)
				}
				smp.fullWant = nil
			}
			if smp.err != nil {
				res.fail(fmt.Errorf("%s/%s source %d: %w", graphs[smp.q.g].name, smp.q.op, smp.q.source, smp.err))
			}
		}
	}
	if w := res.writer; w != nil {
		res.attempted += w.sent + w.epochs + w.failed
		res.absorb(w.failures)
		if err := sess.finalCompare(eg, w, res); err != nil {
			res.fail(err)
		}
	}
	res.drainS = srv.stop().Seconds()
	return res, nil
}

// finalCompare ends a run with writes: one last flush, then the edge count
// and every mixed op on hot are compared with the initial graph plus every
// acknowledged batch applied in-process.
func (s *session) finalCompare(eg *epochGraphs, w *writerStats, res *serveResult) error {
	// The last flush runs unloaded, so it stays out of the stream's figures.
	if err := s.flush("hot", &writerStats{}, nil); err != nil {
		return err
	}
	final, err := applyBatches(eg.base, eg.batches[:w.sent])
	if err != nil {
		return err
	}
	if err := s.srv.checkGraphs(map[string]int{"hot": final.NNZ(), "web": s.graphs[1].a.NNZ()}); err != nil {
		return fmt.Errorf("after the write stream: %w", err)
	}
	ref := newGraphRef(final)
	lastEpoch := make([]uint64, len(s.graphs))
	for _, op := range []string{"bfs", "sssp", "pagerank", "cc"} {
		q := newQuery(s.graphs, 0, op, s.graphs[0].sources[1])
		smp := s.send(&q, time.Now(), 0, lastEpoch, true)
		res.attempted++
		if smp.err == nil {
			smp.err = fullCheck(&q, smp.fullWant, ref)
		}
		if smp.err != nil {
			return fmt.Errorf("final %s on hot: %w", op, smp.err)
		}
	}
	return nil
}

// okLatencies returns the latency from the due instant, in ms, of every
// correct reply of a phase, and their completion offsets.
func (p *phaseResult) okLatencies() (ms []float64, ends []time.Duration) {
	for i := range p.samples {
		if s := &p.samples[i]; s.err == nil {
			ms = append(ms, msOf(s.end-s.due))
			ends = append(ends, s.end)
		}
	}
	return ms, ends
}

func (r *serveResult) phaseOf(kind phaseKind) *phaseResult {
	for i := range r.phases {
		if r.phases[i].kind == kind {
			return &r.phases[i]
		}
	}
	return nil
}

// sheds counts the replies refused by admission control.
func (r *serveResult) sheds() (shed, total int) {
	for _, p := range r.phases {
		for _, s := range p.samples {
			total++
			if s.shed {
				shed++
			}
		}
	}
	return shed, total
}
