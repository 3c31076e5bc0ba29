package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// chaos holds the fault plan applied to every runtime the figures build; nil
// outside -chaos mode.
var chaos *fault.Plan

// EnableChaos makes every subsequent figure run under the standard chaos plan
// (drops, delays, stalls — no crash) seeded with seed. The modeled times then
// include retry and perturbation costs; the computed results are unchanged.
func EnableChaos(seed int64) {
	p := fault.StandardChaos(seed)
	chaos = &p
}

// fusion, when true, routes every figure runtime through the fused
// nonblocking paths (gbbench -fuse=on). The default keeps the paper-fidelity
// eager kernels so figure baselines are unaffected; AblFuse sets the mode
// per-run itself and ignores this knob.
var fusion bool

// SetFusion selects fused (true) or eager (false) execution for every
// subsequent figure run.
func SetFusion(on bool) { fusion = on }

// strategy, when non-nil, installs an inspector with the given pins on every
// figure runtime (gbbench -strategy). The default keeps runtimes without an
// inspector — the hardcoded paper-fidelity kernels — so figure baselines are
// unaffected; AblInspect sets strategies per-run itself and ignores this knob.
var strategy *inspect.Strategy

// SetStrategy selects the communication strategy of every subsequent figure
// run: "off" (no inspector, the historical kernels), "auto", or a single-axis
// pin ("fine", "bulk", "push", "pull", "gather", "replicate").
func SetStrategy(name string) error {
	switch name {
	case "off":
		strategy = nil
	case "auto":
		strategy = &inspect.Strategy{}
	case "fine":
		strategy = &inspect.Strategy{Comm: inspect.CommFine}
	case "bulk":
		strategy = &inspect.Strategy{Comm: inspect.CommBulk}
	case "push":
		strategy = &inspect.Strategy{Dir: inspect.DirPush}
	case "pull":
		strategy = &inspect.Strategy{Dir: inspect.DirPull}
	case "gather":
		strategy = &inspect.Strategy{Place: inspect.PlaceGather}
	case "replicate":
		strategy = &inspect.Strategy{Place: inspect.PlaceReplicate}
	default:
		return fmt.Errorf("bench: unknown strategy %q", name)
	}
	return nil
}

// tracer, when non-nil, is installed on every runtime the figures build so a
// driver (gbbench -trace-out) can export one span forest for the whole run.
// Tracing only observes the simulator — modeled times are identical with and
// without it.
var tracer *trace.Tracer

// EnableTrace makes every subsequent figure run report spans into a fresh
// tracer, which is returned for export.
func EnableTrace() *trace.Tracer {
	tracer = trace.New()
	return tracer
}

// applyChaos installs the chaos plan and the bench tracer, if any, on a
// freshly built runtime. (Every figure runtime goes through here, including
// the NewWithGrid paths that bypass newRT.)
func applyChaos(rt *locale.Runtime) *locale.Runtime {
	if chaos != nil {
		rt.WithFault(*chaos)
	}
	if tracer != nil {
		rt.SetTracer(tracer)
	}
	if strategy != nil {
		rt.Insp = inspect.New(*strategy)
	}
	rt.Fusion = fusion
	return rt
}

// ensureTracer returns rt's tracer, installing a private one if the figure
// run is untraced — the phase-breakdown figures read their numbers from trace
// spans, so they always need one.
func ensureTracer(rt *locale.Runtime) *trace.Tracer {
	if rt.Tr == nil {
		rt.SetTracer(trace.New())
	}
	return rt.Tr
}

// newRT builds a runtime with p locales (one per node) and the given modeled
// threads per locale. Benchmarks run the real work single-goroutine
// (RealWorkers=1) for determinism; the model supplies the parallel times.
func newRT(p, threads int) (*locale.Runtime, error) {
	rt, err := locale.New(machine.Edison(), p, threads)
	if err != nil {
		return nil, err
	}
	return applyChaos(rt), nil
}

// scaled divides n by 10 under ScaleSmall.
func scaled(scale Scale, n int) int {
	if scale == ScaleSmall {
		return n / 10
	}
	return n
}

// randomVec: the paper does not state the capacity of its random vectors; we
// use 2x the nonzero count (density 50%) throughout, which keeps the paper's
// 100M-nonzero workloads within the memory of a 16 GB host.
func randomVec(nnz int, seed int64) *sparse.Vec[int64] {
	return sparse.RandomVec[int64](2*nnz, nnz, seed)
}

// --- Fig 1: Apply ------------------------------------------------------------

// Fig1Left reproduces Fig 1 (left): shared-memory Apply on a 10M-nonzero
// sparse vector, 1-32 threads, Apply1 vs Apply2.
func Fig1Left(scale Scale) (Figure, error) {
	nnz := scaled(scale, 10_000_000)
	x0 := randomVec(nnz, 101)
	fig := Figure{
		ID:     "fig1l",
		Title:  fmt.Sprintf("Apply, shared memory, nnz=%s", human(nnz)),
		XLabel: "threads",
		YLabel: "time",
	}
	inc := func(v int64) int64 { return v + 1 }
	for _, th := range threadSweep {
		rt, err := newRT(1, th)
		if err != nil {
			return fig, err
		}
		x := dist.SpVecFromVec(rt, x0)
		core.Apply1(rt, x, inc)
		fig.Points = append(fig.Points, Point{"Apply1", th, rt.S.ElapsedSeconds()})

		if rt, err = newRT(1, th); err != nil {
			return fig, err
		}
		x = dist.SpVecFromVec(rt, x0)
		core.Apply2(rt, x, inc)
		fig.Points = append(fig.Points, Point{"Apply2", th, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// Fig1Right reproduces Fig 1 (right): distributed Apply on 1-64 nodes with
// 24 threads per node.
func Fig1Right(scale Scale) (Figure, error) {
	nnz := scaled(scale, 10_000_000)
	x0 := randomVec(nnz, 102)
	fig := Figure{
		ID:     "fig1r",
		Title:  fmt.Sprintf("Apply, distributed, nnz=%s, 24 threads/node", human(nnz)),
		XLabel: "nodes",
		YLabel: "time",
	}
	inc := func(v int64) int64 { return v + 1 }
	for _, p := range nodeSweep {
		rt, err := newRT(p, 24)
		if err != nil {
			return fig, err
		}
		x := dist.SpVecFromVec(rt, x0)
		core.Apply1(rt, x, inc)
		fig.Points = append(fig.Points, Point{"Apply1", p, rt.S.ElapsedSeconds()})

		if rt, err = newRT(p, 24); err != nil {
			return fig, err
		}
		x = dist.SpVecFromVec(rt, x0)
		core.Apply2(rt, x, inc)
		fig.Points = append(fig.Points, Point{"Apply2", p, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// --- Fig 2: Assign -----------------------------------------------------------

// Fig2Left reproduces Fig 2 (left): shared-memory Assign of a 1M-nonzero
// sparse vector.
func Fig2Left(scale Scale) (Figure, error) {
	nnz := scaled(scale, 1_000_000)
	b0 := randomVec(nnz, 201)
	fig := Figure{
		ID:     "fig2l",
		Title:  fmt.Sprintf("Assign, shared memory, nnz=%s", human(nnz)),
		XLabel: "threads",
		YLabel: "time",
	}
	for _, th := range threadSweep {
		rt, err := newRT(1, th)
		if err != nil {
			return fig, err
		}
		b := dist.SpVecFromVec(rt, b0)
		a := dist.NewSpVec[int64](rt, b0.N)
		if err := core.Assign1(rt, a, b); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"Assign1", th, rt.S.ElapsedSeconds()})

		if rt, err = newRT(1, th); err != nil {
			return fig, err
		}
		b = dist.SpVecFromVec(rt, b0)
		a = dist.NewSpVec[int64](rt, b0.N)
		if err := core.Assign2(rt, a, b); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"Assign2", th, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// Fig2Right reproduces Fig 2 (right): distributed Assign on 1-64 nodes.
func Fig2Right(scale Scale) (Figure, error) {
	nnz := scaled(scale, 1_000_000)
	b0 := randomVec(nnz, 202)
	fig := Figure{
		ID:     "fig2r",
		Title:  fmt.Sprintf("Assign, distributed, nnz=%s, 24 threads/node", human(nnz)),
		XLabel: "nodes",
		YLabel: "time",
	}
	for _, p := range nodeSweep {
		rt, err := newRT(p, 24)
		if err != nil {
			return fig, err
		}
		b := dist.SpVecFromVec(rt, b0)
		a := dist.NewSpVec[int64](rt, b0.N)
		if err := core.Assign1(rt, a, b); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"Assign1", p, rt.S.ElapsedSeconds()})

		if rt, err = newRT(p, 24); err != nil {
			return fig, err
		}
		b = dist.SpVecFromVec(rt, b0)
		a = dist.NewSpVec[int64](rt, b0.N)
		if err := core.Assign2(rt, a, b); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"Assign2", p, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// Fig3 reproduces Fig 3: distributed Assign2 with 1M and 100M nonzeros.
func Fig3(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "fig3",
		Title:  "Assign2, distributed, 24 threads/node",
		XLabel: "nodes",
		YLabel: "time",
	}
	for _, nnz0 := range []int{1_000_000, 100_000_000} {
		nnz := scaled(scale, nnz0)
		b0 := randomVec(nnz, 301)
		series := "nnz=" + human(nnz)
		for _, p := range nodeSweep {
			rt, err := newRT(p, 24)
			if err != nil {
				return fig, err
			}
			b := dist.SpVecFromVec(rt, b0)
			a := dist.NewSpVec[int64](rt, b0.N)
			if err := core.Assign2(rt, a, b); err != nil {
				return fig, err
			}
			fig.Points = append(fig.Points, Point{series, p, rt.S.ElapsedSeconds()})
		}
	}
	return fig, nil
}

// --- Figs 4/5: eWiseMult -------------------------------------------------------

// keepTrue keeps x entries where the boolean dense operand is set; the paper
// initializes y so that about half the entries of x survive.
func keepTrue(_, y int64) bool { return y != 0 }

// Fig4 reproduces Fig 4: shared-memory eWiseMult of a sparse vector with a
// boolean dense vector, nnz in {10K, 1M, 100M}.
func Fig4(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "fig4",
		Title:  "eWiseMult (sparse x dense), shared memory",
		XLabel: "threads",
		YLabel: "time",
	}
	for _, nnz0 := range []int{10_000, 1_000_000, 100_000_000} {
		nnz := scaled(scale, nnz0)
		x0 := randomVec(nnz, 401)
		y0 := sparse.RandomBoolDense[int64](x0.N, 0.5, 402)
		series := "nnz=" + human(nnz)
		for _, th := range threadSweep {
			rt, err := newRT(1, th)
			if err != nil {
				return fig, err
			}
			x := dist.SpVecFromVec(rt, x0)
			y := dist.DenseVecFromDense(rt, y0)
			if _, err := core.EWiseMultSD(rt, x, y, keepTrue); err != nil {
				return fig, err
			}
			fig.Points = append(fig.Points, Point{series, th, rt.S.ElapsedSeconds()})
		}
	}
	return fig, nil
}

// fig5 runs the distributed eWiseMult sweep at a fixed thread count.
func fig5(scale Scale, id string, threads int) (Figure, error) {
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("eWiseMult (sparse x dense), distributed, %d thread(s)/node", threads),
		XLabel: "nodes",
		YLabel: "time",
	}
	for _, nnz0 := range []int{1_000_000, 100_000_000} {
		nnz := scaled(scale, nnz0)
		x0 := randomVec(nnz, 501)
		y0 := sparse.RandomBoolDense[int64](x0.N, 0.5, 502)
		series := "nnz=" + human(nnz)
		for _, p := range nodeSweep {
			rt, err := newRT(p, threads)
			if err != nil {
				return fig, err
			}
			x := dist.SpVecFromVec(rt, x0)
			y := dist.DenseVecFromDense(rt, y0)
			if _, err := core.EWiseMultSD(rt, x, y, keepTrue); err != nil {
				return fig, err
			}
			fig.Points = append(fig.Points, Point{series, p, rt.S.ElapsedSeconds()})
		}
	}
	return fig, nil
}

// Fig5OneThread reproduces Fig 5 (left): 1 thread per node.
func Fig5OneThread(scale Scale) (Figure, error) { return fig5(scale, "fig5a", 1) }

// Fig5AllThreads reproduces Fig 5 (right): 24 threads per node.
func Fig5AllThreads(scale Scale) (Figure, error) { return fig5(scale, "fig5b", 24) }

// --- Figs 7-9: SpMSpV ----------------------------------------------------------

// spmspvConfig is one Erdős–Rényi workload of the SpMSpV figures.
type spmspvConfig struct {
	n int     // matrix dimension
	d float64 // expected nonzeros per row
	f float64 // input vector density: nnz(x) = n*f
}

func (c spmspvConfig) label(scale Scale) string {
	return fmt.Sprintf("ER matrix (n=%s, d=%.0f, f=%.0f%%)", human(scaled(scale, c.n)), c.d, c.f*100)
}

// The three workload columns of Figs 7 and 8 (n=1M) and Fig 9 (n=10M).
var fig7Configs = []spmspvConfig{
	{1_000_000, 16, 0.02},
	{1_000_000, 4, 0.02},
	{1_000_000, 16, 0.20},
}

var fig9Configs = []spmspvConfig{
	{10_000_000, 16, 0.02},
	{10_000_000, 4, 0.02},
	{10_000_000, 16, 0.20},
}

// spmspvScaled applies the scale: ScaleSmall shrinks these matrices by 10x
// like every other workload.
func spmspvScaled(scale Scale, c spmspvConfig) spmspvConfig {
	if scale == ScaleSmall {
		c.n /= 10
	}
	return c
}

// Fig7 reproduces one column of Fig 7: the shared-memory SpMSpV component
// breakdown (SPA, Sorting, Output) for the cfgIdx-th workload.
func Fig7(cfgIdx int) Runner {
	return func(scale Scale) (Figure, error) {
		c0 := fig7Configs[cfgIdx]
		c := spmspvScaled(scale, c0)
		a := sparse.ErdosRenyi[int64](c.n, c.d, 701+int64(cfgIdx))
		x := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 702)
		fig := Figure{
			ID:     fmt.Sprintf("fig7%c", 'a'+cfgIdx),
			Title:  "SpMSpV shared memory, " + c0.label(scale),
			XLabel: "threads",
			YLabel: "time",
		}
		for _, th := range threadSweep {
			rt, err := newRT(1, th)
			if err != nil {
				return fig, err
			}
			tr := ensureTracer(rt)
			_, _ = core.SpMSpVShm(a, x, core.ShmConfig{
				Threads: th, Sim: rt.S, Loc: 0, Phased: true, Trace: tr,
			})
			// The component breakdown comes from the op's trace span, not
			// private timing plumbing: the span carries the phases the multiply
			// charged between its Begin and End.
			if sp := tr.Last("SpMSpVShm"); sp != nil {
				for _, ph := range sp.Phases {
					fig.Points = append(fig.Points, Point{ph.Name, th, ph.NS / 1e9})
				}
			}
		}
		return fig, nil
	}
}

// figDist runs one column of Fig 8 or Fig 9: the distributed SpMSpV
// component breakdown (Gather Input, Local Multiply, Scatter Output).
func figDist(id string, c0 spmspvConfig, cfgIdx int) Runner {
	return func(scale Scale) (Figure, error) {
		c := spmspvScaled(scale, c0)
		a0 := sparse.ErdosRenyi[int64](c.n, c.d, 801+int64(cfgIdx))
		x0 := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 802)
		fig := Figure{
			ID:     id,
			Title:  "SpMSpV distributed, " + c0.label(scale) + ", 24 threads/node",
			XLabel: "nodes",
			YLabel: "time",
		}
		for _, p := range nodeSweep {
			rt, err := newRT(p, 24)
			if err != nil {
				return fig, err
			}
			tr := ensureTracer(rt)
			a := dist.MatFromCSR(rt, a0)
			x := dist.SpVecFromVec(rt, x0)
			_, _ = core.SpMSpVDist(rt, a, x)
			totals := map[string]float64{}
			if sp := tr.Last("SpMSpVDist"); sp != nil {
				for _, ph := range sp.Phases {
					totals[ph.Name] += ph.NS
				}
			}
			for _, name := range []string{"Gather Input", "Local Multiply", "Scatter Output"} {
				fig.Points = append(fig.Points, Point{name, p, totals[name] / 1e9})
			}
		}
		return fig, nil
	}
}

// Fig8 reproduces one column of Fig 8 (n=1M workloads).
func Fig8(cfgIdx int) Runner {
	return figDist(fmt.Sprintf("fig8%c", 'a'+cfgIdx), fig7Configs[cfgIdx], cfgIdx)
}

// Fig9 reproduces one column of Fig 9 (n=10M workloads).
func Fig9(cfgIdx int) Runner {
	return figDist(fmt.Sprintf("fig9%c", 'a'+cfgIdx), fig9Configs[cfgIdx], cfgIdx+3)
}

// --- Fig 10: locales sharing one node ----------------------------------------

// Fig10 reproduces Fig 10: both Assign variants with all locales placed on a
// single node, one thread per locale, on a 10K-nonzero vector.
func Fig10(scale Scale) (Figure, error) {
	nnz := 10_000 // small on purpose in the paper; keep at paper size
	b0 := randomVec(nnz, 1001)
	fig := Figure{
		ID:     "fig10",
		Title:  fmt.Sprintf("Assign with colocated locales, nnz=%s, 1 thread/locale", human(nnz)),
		XLabel: "locales",
		YLabel: "time",
	}
	for _, p := range localeSweep {
		g, err := locale.NewGridOnOneNode(p)
		if err != nil {
			return fig, err
		}
		rt := applyChaos(locale.NewWithGrid(machine.Edison(), g, 1))
		b := dist.SpVecFromVec(rt, b0)
		a := dist.NewSpVec[int64](rt, b0.N)
		if err := core.Assign1(rt, a, b); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"Assign1", p, rt.S.ElapsedSeconds()})

		rt = applyChaos(locale.NewWithGrid(machine.Edison(), g, 1))
		b = dist.SpVecFromVec(rt, b0)
		a = dist.NewSpVec[int64](rt, b0.N)
		if err := core.Assign2(rt, a, b); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"Assign2", p, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// human renders counts as 10K / 1M / 100M.
func human(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
