// gbbench regenerates the evaluation figures of "Towards a GraphBLAS Library
// in Chapel" (Azad & Buluç, IPDPSW 2017) on the simulated Edison machine
// model. Every operation executes for real on real data; the reported times
// come from the calibrated performance model (see DESIGN.md).
//
// Usage:
//
//	gbbench -figure fig1l            # one figure
//	gbbench -figure all -scale small # everything, 10x-reduced workloads
//	gbbench -figure fig7a -format csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/trace"
)

// jsonPoint / jsonFigure / jsonReport shape the -json output: per figure the
// modeled points plus the wall-clock time the regeneration itself took, so CI
// trend lines can watch both the model and the real cost of running it.
type jsonPoint struct {
	Series  string  `json:"series"`
	X       int     `json:"x"`
	Seconds float64 `json:"seconds"`
}

type jsonFigure struct {
	ID          string      `json:"id"`
	Title       string      `json:"title"`
	WallSeconds float64     `json:"wall_seconds"`
	Points      []jsonPoint `json:"points"`
}

type jsonReport struct {
	Scale   string       `json:"scale"`
	Chaos   bool         `json:"chaos"`
	Figures []jsonFigure `json:"figures"`
}

func main() {
	var (
		figure    = flag.String("figure", "all", "figure id (fig1l fig1r fig2l fig2r fig3 fig4 fig5a fig5b fig7a-c fig8a-c fig9a-c fig10), 'all', or 'none' (skip figures, e.g. with -mttr-out)")
		scale     = flag.String("scale", "small", "workload scale: 'paper' (exact sizes, needs ~8 GB) or 'small' (1/10)")
		format    = flag.String("format", "table", "output format: 'table', 'csv', or 'chart' (ASCII log-scale plot)")
		quiet     = flag.Bool("q", false, "suppress progress messages on stderr")
		list      = flag.Bool("list", false, "list the available figure ids and exit")
		chaos     = flag.Bool("chaos", false, "run every figure under a deterministic fault plan (message drops, delays, stalls); results are unchanged, modeled times include the recovery cost")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed of the -chaos fault plan")
		fuse      = flag.String("fuse", "off", "execution mode of the figure runs: 'off' (eager per-op kernels, paper fidelity) or 'on' (fused nonblocking regions); the ablfuse figure always runs both")
		strat     = flag.String("strategy", "off", "communication strategy of the figure runs: 'off' (no inspector, the historical kernels), 'auto' (cost-model dispatch), or a pin ('fine', 'bulk', 'push', 'pull', 'gather', 'replicate'); the ablinspect figure always sweeps pins vs auto")
		chaosPol  = flag.String("chaos-policy", "redistribute", "crash-recovery policy of the -mttr-out runs: 'redistribute', 'failover' or 'besteffort'")
		mttrOut   = flag.String("mttr-out", "", "crash one locale mid-algorithm (BFS, SSSP, PageRank) under -chaos-seed and -chaos-policy and write the MTTR/recovery-bytes report as JSON to this file")
		mutate    = flag.Float64("mutate-rate", 0.02, "fraction of stored elements mutated per epoch in the -stream-out benchmark (0 < rate <= 1)")
		streamOut = flag.String("stream-out", "", "run the streaming ingest/query benchmark (epoch merges + incremental CC + streaming PageRank at -mutate-rate, under -chaos-seed and -chaos-policy) and write the report as JSON to this file")
		jsonPath  = flag.String("json", "", "also write the figures (modeled points + wall-clock seconds per figure) as JSON to this file")
		traceOut  = flag.String("trace-out", "", "write the trace spans of the whole run as JSON to this file")
		traceHTTP = flag.String("trace-http", "", "serve Prometheus-style trace metrics on this address (e.g. :8080) while the run executes")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gbbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gbbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *chaos {
		bench.EnableChaos(*chaosSeed)
	}

	switch *fuse {
	case "on":
		bench.SetFusion(true)
	case "off":
		bench.SetFusion(false)
	default:
		fmt.Fprintf(os.Stderr, "gbbench: -fuse must be 'on' or 'off', got %q\n", *fuse)
		os.Exit(2)
	}

	if err := bench.SetStrategy(*strat); err != nil {
		fmt.Fprintf(os.Stderr, "gbbench: -strategy: %v\n", err)
		os.Exit(2)
	}

	var tr *trace.Tracer
	if *traceOut != "" || *traceHTTP != "" {
		tr = bench.EnableTrace()
	}
	if *traceHTTP != "" {
		go func() {
			if err := http.ListenAndServe(*traceHTTP, trace.Handler(tr)); err != nil {
				fmt.Fprintf(os.Stderr, "gbbench: -trace-http: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Println(e.ID)
		}
		return
	}

	var sc bench.Scale
	switch *scale {
	case "paper":
		sc = bench.ScalePaper
	case "small":
		sc = bench.ScaleSmall
	default:
		fmt.Fprintf(os.Stderr, "gbbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	var runs []struct {
		ID  string
		Run bench.Runner
	}
	switch {
	case strings.EqualFold(*figure, "none"):
		// No figures — used by CI cells that only want the -mttr-out report.
	case strings.EqualFold(*figure, "all"):
		runs = bench.Registry()
	default:
		for _, id := range strings.Split(*figure, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if r := bench.Lookup(id); r != nil {
				runs = append(runs, struct {
					ID  string
					Run bench.Runner
				}{id, r})
				continue
			}
			// Not an exact id: expand it as a prefix, so "fig7" selects
			// fig7a, fig7b and fig7c.
			matched := false
			for _, e := range bench.Registry() {
				if strings.HasPrefix(e.ID, id) {
					runs = append(runs, e)
					matched = true
				}
			}
			if !matched {
				fmt.Fprintf(os.Stderr, "gbbench: unknown figure %q\n", id)
				os.Exit(2)
			}
		}
	}

	report := jsonReport{Scale: string(sc), Chaos: *chaos}
	csvHeaderDone := false
	failed := 0
	for _, e := range runs {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: running %s (scale=%s)...\n", e.ID, sc)
		}
		start := time.Now()
		fig, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		wall := time.Since(start).Seconds()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: %s done in %.1fs\n", e.ID, wall)
		}
		if *jsonPath != "" {
			jf := jsonFigure{ID: fig.ID, Title: fig.Title, WallSeconds: wall}
			for _, p := range fig.Points {
				jf.Points = append(jf.Points, jsonPoint{Series: p.Series, X: p.X, Seconds: p.Seconds})
			}
			report.Figures = append(report.Figures, jf)
		}
		switch *format {
		case "csv":
			out := fig.CSV()
			if csvHeaderDone {
				// Strip the repeated header when emitting multiple figures.
				if i := strings.IndexByte(out, '\n'); i >= 0 {
					out = out[i+1:]
				}
			}
			fmt.Print(out)
			csvHeaderDone = true
		case "chart":
			fmt.Println(fig.Chart())
		default:
			fmt.Println(fig.Table())
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: encoding -json output: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: wrote %s (%d figures)\n", *jsonPath, len(report.Figures))
		}
	}
	if *mttrOut != "" {
		pol, err := fault.ParseRecoveryPolicy(*chaosPol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: -chaos-policy: %v\n", err)
			os.Exit(2)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: measuring MTTR (seed=%d policy=%s)...\n", *chaosSeed, pol)
		}
		rep, err := bench.MeasureRecovery(*chaosSeed, pol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: -mttr-out: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*mttrOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: creating %s: %v\n", *mttrOut, err)
			os.Exit(1)
		}
		if err := bench.WriteRecoveryJSON(f, rep); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: writing %s: %v\n", *mttrOut, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: closing %s: %v\n", *mttrOut, err)
			os.Exit(1)
		}
		if !*quiet {
			for _, r := range rep.Runs {
				fmt.Fprintf(os.Stderr, "gbbench: %s: mttr=%.0fns moved=%dB accuracy=%.3f\n",
					r.Algorithm, r.MTTRNS, r.Recovery.MovedBytes, r.Accuracy)
			}
			fmt.Fprintf(os.Stderr, "gbbench: wrote %s (%d runs)\n", *mttrOut, len(rep.Runs))
		}
	}
	if *streamOut != "" {
		pol, err := fault.ParseRecoveryPolicy(*chaosPol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: -chaos-policy: %v\n", err)
			os.Exit(2)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: streaming benchmark (seed=%d rate=%g policy=%s)...\n",
				*chaosSeed, *mutate, pol)
		}
		rep, err := bench.MeasureStreaming(*chaosSeed, *mutate, pol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: -stream-out: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*streamOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: creating %s: %v\n", *streamOut, err)
			os.Exit(1)
		}
		if err := bench.WriteStreamJSON(f, rep); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: writing %s: %v\n", *streamOut, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: closing %s: %v\n", *streamOut, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: wrote %s (%d epochs, warm/cold rounds %d/%d)\n",
				*streamOut, len(rep.Epochs), rep.WarmRounds, rep.ColdRounds)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: creating %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		if err := trace.WriteJSON(f, tr); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gbbench: closing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "gbbench: wrote %s (%d root spans)\n", *traceOut, len(tr.Roots()))
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "gbbench: %d figure(s) failed\n", failed)
		os.Exit(1)
	}
}
