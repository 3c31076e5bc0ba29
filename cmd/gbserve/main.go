// gbserve is the always-on graph query service: it loads (or generates)
// distributed graphs once at startup and serves concurrent BFS / SSSP /
// PageRank / connected-components / triangle-count queries over HTTP, with
// per-tenant admission control, cooperative cancellation and deadlines, BFS
// requests that overlap on a graph coalesced into multi-source runs,
// snapshot-isolated reads over streaming epochs, and graceful drain on
// SIGTERM.
//
// Usage:
//
//	gbserve -addr :8080 -graph web=rmat:12:8:1 -graph mesh=er:4096:8:7
//	curl -s -X POST localhost:8080/query -H 'X-Tenant: alice' \
//	    -d '{"graph":"web","op":"bfs","source":0}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/gb"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// graphSpecs collects repeated -graph flags: name=rmat:scale:ef:seed or
// name=er:n:degree:seed (degree is the mean out-degree, not a density).
type graphSpecs []string

func (g *graphSpecs) String() string     { return strings.Join(*g, ",") }
func (g *graphSpecs) Set(v string) error { *g = append(*g, v); return nil }

// buildGraph generates the CSR a spec names.
func buildGraph(spec string) (name string, a *sparse.CSR[float64], err error) {
	name, kind, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("want name=kind:..., got %q", spec)
	}
	parts := strings.Split(kind, ":")
	switch parts[0] {
	case "rmat":
		if len(parts) != 4 {
			return "", nil, fmt.Errorf("want rmat:scale:edgefactor:seed, got %q", kind)
		}
		scale, err1 := strconv.Atoi(parts[1])
		ef, err2 := strconv.Atoi(parts[2])
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return "", nil, fmt.Errorf("bad rmat numbers in %q", kind)
		}
		a, err = sparse.RMAT[float64](scale, ef, seed)
		return name, a, err
	case "er":
		if len(parts) != 4 {
			return "", nil, fmt.Errorf("want er:n:degree:seed (degree = mean out-degree), got %q", kind)
		}
		n, err1 := strconv.Atoi(parts[1])
		d, err2 := strconv.ParseFloat(parts[2], 64)
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return "", nil, fmt.Errorf("bad er numbers in %q", kind)
		}
		return name, sparse.ErdosRenyi[float64](n, d, seed), nil
	default:
		return "", nil, fmt.Errorf("unknown graph kind %q (want rmat|er)", parts[0])
	}
}

func parsePolicy(s string) (gb.RecoveryPolicy, error) {
	switch s {
	case "redistribute":
		return gb.Redistribute, nil
	case "failover":
		return gb.Failover, nil
	case "besteffort":
		return gb.BestEffort, nil
	default:
		return gb.Redistribute, fmt.Errorf("unknown policy %q (want redistribute|failover|besteffort)", s)
	}
}

func main() {
	var graphs graphSpecs
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		locales   = flag.Int("locales", 4, "modeled locales per graph")
		threads   = flag.Int("threads", 4, "modeled threads per locale")
		policy    = flag.String("policy", "redistribute", "crash-recovery policy of chaos queries: redistribute|failover|besteffort")
		replicate = flag.Bool("replicate", false, "keep chained-declustering block replicas (enables failover)")
		maxConc   = flag.Int("max-concurrent", 8, "queries running at once")
		maxQueue  = flag.Int("max-queue", 16, "admitted queries allowed to wait for a slot")
		maxWait   = flag.Duration("max-wait", 250*time.Millisecond, "longest a queued query waits before shedding")
		rate      = flag.Float64("tenant-rate", 100, "per-tenant queries per second")
		burst     = flag.Int("tenant-burst", 20, "per-tenant burst size")
		timeout   = flag.Duration("timeout", 10*time.Second, "default per-query wall-clock timeout")
		budgetMS  = flag.Float64("budget-ms", 0, "default per-query modeled-time budget in ms (0 = none)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "longest to wait for in-flight queries on shutdown")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file, flushed when the drain completes")
	)
	flag.Var(&graphs, "graph", "graph to load, name=rmat:scale:edgefactor:seed or name=er:n:degree:seed with degree the mean out-degree (repeatable)")
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gbserve: "+format+"\n", args...)
		os.Exit(1)
	}
	if len(graphs) == 0 {
		fail("no -graph specs (e.g. -graph web=rmat:12:8:1)")
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		fail("%v", err)
	}
	// stopProfile flushes the CPU profile once the drain is over; it is called,
	// not deferred, because the shutdown error path leaves through os.Exit.
	stopProfile := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-cpuprofile: %v", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "gbserve: -cpuprofile: %v\n", err)
			}
		}
	}

	tracer := trace.New()
	srv := serve.New(serve.Config{
		Locales: *locales, Threads: *threads,
		Policy: pol, Replicate: *replicate,
		MaxConcurrent: *maxConc, MaxQueue: *maxQueue, MaxWait: *maxWait,
		TenantRate: *rate, TenantBurst: *burst,
		DefaultTimeout: *timeout, DefaultBudgetNS: *budgetMS * 1e6,
		Tracer: tracer,
	})
	for _, spec := range graphs {
		name, csr, err := buildGraph(spec)
		if err != nil {
			fail("-graph %s: %v", spec, err)
		}
		t0 := time.Now()
		if err := srv.LoadGraph(name, csr); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "gbserve: loaded %s: %d vertices, %d edges, %d locales (%.1fms)\n",
			name, csr.NRows, csr.NNZ(), *locales, float64(time.Since(t0).Microseconds())/1e3)
	}

	// Bodies are bounded in the handlers; the header timeout keeps a client
	// that never finishes its request line from holding a connection open.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "gbserve: serving on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		fail("%v", err)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: readiness goes false, in-flight queries finish, then the
	// listener closes. A second signal (or the drain timeout) cuts it short.
	fmt.Fprintf(os.Stderr, "gbserve: draining\n")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "gbserve: %v\n", err)
	}
	err = hs.Shutdown(dctx)
	stopProfile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gbserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gbserve: drained clean\n")
}
