package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// This file benchmarks the design alternatives the paper's discussion calls
// out (DESIGN.md §7). They are not figures of the paper; they quantify the
// paper's recommendations on the same simulated machine.

// AblGather compares the fine-grained element-wise gather/scatter of the
// paper's SpMSpV (Listing 8) with the bulk-synchronous batched communication
// its §IV recommends, on the Fig 8 workload (ER n=1M, d=16, f=2%).
func AblGather(scale Scale) (Figure, error) {
	c := spmspvScaled(scale, fig7Configs[0])
	a0 := sparse.ErdosRenyi[int64](c.n, c.d, 901)
	x0 := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 902)
	fig := Figure{
		ID:     "ablgather",
		Title:  "SpMSpV communication: fine-grained (paper) vs bulk-synchronous (paper's recommendation), " + fig7Configs[0].label(scale),
		XLabel: "nodes",
		YLabel: "time",
	}
	for _, p := range nodeSweep {
		rt, err := newRT(p, 24)
		if err != nil {
			return fig, err
		}
		a := dist.MatFromCSR(rt, a0)
		x := dist.SpVecFromVec(rt, x0)
		_, _ = core.SpMSpVDist(rt, a, x)
		fig.Points = append(fig.Points, Point{"fine-grained", p, rt.S.ElapsedSeconds()})

		if rt, err = newRT(p, 24); err != nil {
			return fig, err
		}
		a = dist.MatFromCSR(rt, a0)
		x = dist.SpVecFromVec(rt, x0)
		if _, _, err := core.SpMSpVDistBulk(rt, a, x); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"bulk-synchronous", p, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// AblSort compares merge sort (the paper's choice) with radix sort (the
// "less expensive integer sorting algorithm" it expects to win) inside the
// shared-memory SpMSpV.
func AblSort(scale Scale) (Figure, error) {
	c := spmspvScaled(scale, fig7Configs[0])
	a := sparse.ErdosRenyi[int64](c.n, c.d, 903)
	x := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 904)
	fig := Figure{
		ID:     "ablsort",
		Title:  "SpMSpV sorting step: merge sort (paper) vs radix sort, " + fig7Configs[0].label(scale),
		XLabel: "threads",
		YLabel: "time",
	}
	for _, th := range threadSweep {
		for _, kind := range []struct {
			name string
			e    core.Engine
		}{{"merge sort", core.EngineMergeSort}, {"radix sort", core.EngineRadixSort}} {
			rt, err := newRT(1, th)
			if err != nil {
				return fig, err
			}
			tr := ensureTracer(rt)
			_, _ = core.SpMSpVShm(a, x, core.ShmConfig{
				Threads: th, Engine: kind.e, Sim: rt.S, Loc: 0, Phased: true, Trace: tr,
			})
			var sortNS float64
			if sp := tr.Last("SpMSpVShm"); sp != nil {
				for _, ph := range sp.Phases {
					if ph.Name == "Sorting" {
						sortNS += ph.NS
					}
				}
			}
			fig.Points = append(fig.Points, Point{kind.name, th, sortNS / 1e9})
		}
	}
	return fig, nil
}

// AblEngine compares the three shared-memory SpMSpV pipelines end to end:
// merge sort (the paper's Listing 6–7), radix sort (its suggested cheaper
// sort), and the sort-free bucket engine (scatter into per-worker bucket
// ranges, ordered bucket merge, no global sort and no atomic fetch-and-add).
// Unlike AblSort, which isolates the sorting phase, this measures the whole
// multiply, so the bucket engine's savings on the accumulation side show too.
func AblEngine(scale Scale) (Figure, error) {
	c := spmspvScaled(scale, fig7Configs[0])
	a := sparse.ErdosRenyi[int64](c.n, c.d, 909)
	x := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 910)
	fig := Figure{
		ID:     "ablengine",
		Title:  "SpMSpV pipeline: merge sort (paper) vs radix sort vs sort-free buckets, " + fig7Configs[0].label(scale),
		XLabel: "threads",
		YLabel: "time",
	}
	engines := []struct {
		name string
		e    core.Engine
	}{
		{"merge sort", core.EngineMergeSort},
		{"radix sort", core.EngineRadixSort},
		{"bucket", core.EngineBucket},
	}
	for _, th := range threadSweep {
		for _, eng := range engines {
			rt, err := newRT(1, th)
			if err != nil {
				return fig, err
			}
			_, _ = core.SpMSpVShm(a, x, core.ShmConfig{
				Threads: th, Engine: eng.e, Sim: rt.S, Loc: 0,
			})
			fig.Points = append(fig.Points, Point{eng.name, th, rt.S.ElapsedSeconds()})
		}
	}
	return fig, nil
}

// AblBulk breaks the fine-grained vs bulk-synchronous comparison of AblGather
// down by communication phase: the gather and scatter times of the paper's
// element-wise SpMSpVDist against the same phases of SpMSpVDistBulk, whose
// collectives send one α+βn message per locale pair.
func AblBulk(scale Scale) (Figure, error) {
	c := spmspvScaled(scale, fig7Configs[0])
	a0 := sparse.ErdosRenyi[int64](c.n, c.d, 911)
	x0 := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 912)
	fig := Figure{
		ID:     "ablbulk",
		Title:  "SpMSpV communication phases: fine-grained vs bulk collectives, " + fig7Configs[0].label(scale),
		XLabel: "nodes",
		YLabel: "time",
	}
	phaseTotals := func(sp *trace.Span) map[string]float64 {
		totals := map[string]float64{}
		if sp != nil {
			for _, ph := range sp.Phases {
				totals[ph.Name] += ph.NS / 1e9
			}
		}
		return totals
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
		fine := phaseTotals(tr.Last("SpMSpVDist"))
		fig.Points = append(fig.Points, Point{"gather (fine)", p, fine["Gather Input"]})
		fig.Points = append(fig.Points, Point{"scatter (fine)", p, fine["Scatter Output"]})

		if rt, err = newRT(p, 24); err != nil {
			return fig, err
		}
		tr = ensureTracer(rt)
		a = dist.MatFromCSR(rt, a0)
		x = dist.SpVecFromVec(rt, x0)
		if _, _, err := core.SpMSpVDistBulk(rt, a, x); err != nil {
			return fig, err
		}
		bulk := phaseTotals(tr.Last("SpMSpVDistBulk"))
		fig.Points = append(fig.Points, Point{"gather (bulk)", p, bulk["Gather Input"]})
		fig.Points = append(fig.Points, Point{"scatter (bulk)", p, bulk["Scatter Output"]})
	}
	return fig, nil
}

// AblAtomic compares the paper's atomic-compaction eWiseMult with the
// thread-private-buffer + prefix-sum organization it sketches as the fix.
func AblAtomic(scale Scale) (Figure, error) {
	nnz := scaled(scale, 10_000_000)
	x0 := randomVec(nnz, 905)
	y0 := sparse.RandomBoolDense[int64](x0.N, 0.5, 906)
	fig := Figure{
		ID:     "ablatomic",
		Title:  fmt.Sprintf("eWiseMult compaction: atomic fetch-add (paper) vs thread-private + prefix sum, nnz=%s", human(nnz)),
		XLabel: "threads",
		YLabel: "time",
	}
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
		fig.Points = append(fig.Points, Point{"atomic", th, rt.S.ElapsedSeconds()})

		if rt, err = newRT(1, th); err != nil {
			return fig, err
		}
		x = dist.SpVecFromVec(rt, x0)
		y = dist.DenseVecFromDense(rt, y0)
		if _, err := core.EWiseMultSDNoAtomic(rt, x, y, keepTrue); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"no-atomic", th, rt.S.ElapsedSeconds()})
	}
	return fig, nil
}

// AblGrid compares the 2-D processor grid (the paper's choice, citing its
// scalability) with 1-D row and 1-D column distributions for the distributed
// SpMSpV communication.
func AblGrid(scale Scale) (Figure, error) {
	c := spmspvScaled(scale, fig7Configs[0])
	a0 := sparse.ErdosRenyi[int64](c.n, c.d, 907)
	x0 := sparse.RandomVec[int64](c.n, int(float64(c.n)*c.f), 908)
	fig := Figure{
		ID:     "ablgrid",
		Title:  "SpMSpV distribution: 2-D grid (paper) vs 1-D row / 1-D column, " + fig7Configs[0].label(scale),
		XLabel: "nodes",
		YLabel: "time",
	}
	shapes := []struct {
		name  string
		shape func(p int) (*locale.Grid, error)
	}{
		{"2-D grid", locale.NewGrid},
		{"1-D rows", func(p int) (*locale.Grid, error) { return locale.NewGridShape(p, 1) }},
		{"1-D cols", func(p int) (*locale.Grid, error) { return locale.NewGridShape(1, p) }},
	}
	for _, p := range nodeSweep {
		for _, s := range shapes {
			g, err := s.shape(p)
			if err != nil {
				return fig, err
			}
			rt := applyChaos(locale.NewWithGrid(machine.Edison(), g, 24))
			a := dist.MatFromCSR(rt, a0)
			x := dist.SpVecFromVec(rt, x0)
			_, _ = core.SpMSpVDist(rt, a, x)
			fig.Points = append(fig.Points, Point{s.name, p, rt.S.ElapsedSeconds()})
		}
	}
	return fig, nil
}
