// The two-clock benchmark: real wall-clock and CPU for the gb library and the
// gbserve service, end to end and layer by layer, next to the simulator's
// modeled clock. See README.md for the metrics, the workloads and how to run
// it; BENCHMARK.json at the repository root is the machine-readable contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	setups   int    // set-up repetitions; 0 = the workload's default
	gbserve  string // path of the built gbserve binary
	outdir   string
	nproc    int
}

// runResult is the JSON object a run ends with.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: lib-kernels, lib-dist, serve-read or serve-rw (default: all four)")
		seed     = flag.Int64("seed", 1, "seed every graph, vector, source pool and write schedule derives from")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run: benchmark-side spans and the per-layer ladder instead of the end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "run the selected workloads this many times (seed, seed+1, ...) and print the spread of every end-to-end metric")
		out      = flag.String("out", "", "also write the results as JSON to this file")
		gbserve  = flag.String("gbserve", "", "built gbserve binary (default: build repro/cmd/gbserve into a temporary directory)")
		outdir   = flag.String("outdir", "out", "directory for trace files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *repeat, *out, *gbserve, *outdir); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace, repeat int, out, gbserve, outdir string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds < 1 || repeat < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1, -repeat >= 1 and -trace 0 or 1")
	}
	selected := workloadNames
	if workload != "" {
		if !slices.Contains(workloadNames, workload) {
			return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
		}
		selected = []string{workload}
	}
	if err := placeSelf(); err != nil {
		logf("no CPU placement, threads stay where the kernel puts them: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if gbserve == "" {
		dir, err := os.MkdirTemp("", "gbbench-e2e-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if gbserve, err = buildGbserve(dir); err != nil {
			return err
		}
	}

	type record struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Result   runResult `json:"result"`
	}
	var records []record
	var last runResult
	for rep := 0; rep < repeat; rep++ {
		for _, w := range selected {
			cfg := runConfig{
				workload: w, seed: seed + int64(rep), seconds: time.Duration(seconds) * time.Second,
				trace: trace == 1, gbserve: gbserve, outdir: outdir, nproc: runtime.GOMAXPROCS(0),
			}
			res, err := runOne(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w, cfg.seed, err)
			}
			printResult(cfg, res)
			records = append(records, record{w, cfg.seed, res})
			last = res
		}
	}
	if repeat > 1 && trace == 0 {
		for _, w := range selected {
			var rs []runResult
			for _, r := range records {
				if r.Workload == w {
					rs = append(rs, r.Result)
				}
			}
			printSpread(w, rs)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The last line of standard output is the (last) run's result object.
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// buildGbserve compiles the service from this checkout's source.
func buildGbserve(dir string) (string, error) {
	bin := filepath.Join(dir, "gbserve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/gbserve")
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gbserve: %w\n%s", err, b)
	}
	return bin, nil
}

func runOne(ctx context.Context, cfg runConfig) (runResult, error) {
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	switch cfg.workload {
	case "lib-kernels", "lib-dist":
		return runLibUntraced(cfg)
	default:
		return runServeUntraced(ctx, cfg)
	}
}

// setupLib runs the workload's set-up and returns it with the host seconds
// it took.
func setupLib(cfg runConfig, name string) (*libWorkload, float64, error) {
	t0 := time.Now()
	var w *libWorkload
	var err error
	if name == "lib-kernels" {
		w, err = setupKernels(cfg.seed)
	} else {
		w, err = setupDist(cfg.seed)
	}
	return w, time.Since(t0).Seconds(), err
}

// Set-up runs several times per run and the median is reported: one set-up is
// too short (50 ms on lib-dist) to time steadily.
func setupReps(cfg runConfig) int {
	switch {
	case cfg.setups > 0:
		return cfg.setups
	case cfg.workload == "lib-dist":
		return 7
	}
	return 3
}

func runLibUntraced(cfg runConfig) (runResult, error) {
	var calib calibLog
	calib.sample()
	var setups []float64
	var w *libWorkload
	for i := 0; i < setupReps(cfg); i++ {
		var s float64
		var err error
		if w, s, err = setupLib(cfg, cfg.workload); err != nil {
			return runResult{}, err
		}
		setups = append(setups, s)
	}
	warm := warmLib(w)
	r := runLib(w, cfg.seconds, false, nil, &calib)
	r.add(warm)
	if r.firstErr != nil {
		logf("first failure: %v", r.firstErr)
	}
	ok := len(r.lat)
	if ok == 0 {
		return runResult{}, fmt.Errorf("no op succeeded: %v", r.firstErr)
	}
	lat := summarize(r.lat)
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("ops_per_s", r.opsPerSecond())
	m.set("lat_ms_p50", lat.p50)
	m.set("lat_ms_p95", lat.p95)
	m.set("cpu_ms_per_op", msOf(r.cpu)/float64(ok))
	logf("%s: %d latency samples (p99 %.3f ms), %.4f modeled ms/op, set-ups %.3v s, calibration %.1f ms (spread %.3f)",
		cfg.workload, lat.samples, lat.p99, 1e3*r.modeledS/float64(ok), setups, median(calib.ms), calib.spread())
	for k, c := range w.calls {
		logf("  %-20s median %8.3f ms over %d calls", c.name, median(r.perCall[k].ms), len(r.perCall[k].ms))
	}
	return runResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m.vals}, nil
}

// servePhases is the untraced serve window: an open loop for latency, then a
// closed loop for capacity.
func servePhases(cfg runConfig) []phase {
	rw := cfg.workload == "serve-rw"
	rate := openRate
	if rw {
		rate = rwReadRate
	}
	open := time.Duration(openShare * float64(cfg.seconds))
	return []phase{
		{kind: openPhase, dur: open, rate: rate, writes: rw},
		{kind: closedPhase, dur: cfg.seconds - open, writes: rw},
	}
}

func runServeUntraced(ctx context.Context, cfg runConfig) (runResult, error) {
	var calib calibLog
	calib.sample()
	res, err := runServe(ctx, serveConfig{
		bin: cfg.gbserve, seed: cfg.seed, setups: setupReps(cfg), probeReps: 1,
		clients: min(cfg.nproc, 4), phases: servePhases(cfg),
	})
	if err != nil {
		return runResult{}, err
	}
	calib.sample()
	if res.firstErr != nil {
		logf("first failure: %v", res.firstErr)
	}
	open, closed := res.phaseOf(openPhase), res.phaseOf(closedPhase)
	openMS, _ := open.okLatencies()
	_, closedEnds := closed.okLatencies()
	if len(openMS) == 0 || len(closedEnds) == 0 {
		return runResult{}, fmt.Errorf("no query succeeded: %v", res.firstErr)
	}
	lat := summarize(openMS)
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(res.setupS))
	m.set("ops_per_s", median(sliceRates(closedEnds, closed.dur, sliceSeconds*time.Second)))
	m.set("lat_ms_p50", lat.p50)
	m.set("lat_ms_p95", lat.p95)
	m.set("cpu_ms_per_op", msOf(closed.cpu)/float64(len(closedEnds)))
	shed, _ := res.sheds()
	logf("%s: %d open-loop latency samples at %.0f req/s (p99 %.3f ms), %d closed-loop ops, %d shed, %.4f modeled ms/op, set-ups %.3v s, calibration %.1f ms (spread %.3f)",
		cfg.workload, lat.samples, open.rate, lat.p99, len(closedEnds), shed, mean(res.modeledMS), res.setupS, median(calib.ms), calib.spread())
	return runResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m.vals}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printResult lists every metric of a run by name, with its unit.
func printResult(cfg runConfig, r runResult) {
	fmt.Printf("# %s seed=%d seconds=%d trace=%t correct=%t attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, int(cfg.seconds.Seconds()), cfg.trace, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// printSpread is the A/A evidence of -repeat: per end-to-end metric, the
// median and quartiles over the runs, the interquartile range as a share of
// the median (what the acceptance rule bounds) and (max-min)/median.
func printSpread(workload string, rs []runResult) {
	fmt.Printf("# %s: spread over %d runs\n", workload, len(rs))
	fmt.Printf("%-16s %12s %12s %12s %10s %10s %8s\n", "metric", "q1", "median", "q3", "iqr/med", "range/med", "bound")
	for _, d := range endToEnd {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Metrics[d.Name].Value)
		}
		q1, q2, q3 := quartiles(xs)
		s := sortedCopy(xs)
		fmt.Printf("%-16s %12.6g %12.6g %12.6g %10.4f %10.4f %8.2f\n",
			d.Name, q1, q2, q3, (q3-q1)/q2, (s[len(s)-1]-s[0])/q2, d.Bound)
	}
}
