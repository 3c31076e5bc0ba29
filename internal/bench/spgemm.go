package bench

// The SUMMA SpGEMM figure (gbbench -figure spgemm): per-stage modeled time (broadcast / local multiply / merge, summed from the
// trace spans SpGEMMDist emits) over the locale sweep, plus the end-to-end
// modeled time of the distributed triangle count on the same graph — the
// workload figure of the SpGEMM layer.

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// sumSpans walks the span forest and accumulates DurNS by span name.
func sumSpans(spans []*trace.Span, into map[string]float64) {
	for _, sp := range spans {
		into[sp.Name] += sp.DurNS
		sumSpans(sp.Children, into)
	}
}

// SpGEMM is the "spgemm" figure runner.
func SpGEMM(scale Scale) (Figure, error) {
	n := scaled(scale, 40_000)
	a0 := sparse.ErdosRenyi[int64](n, 8, 915)
	b0 := sparse.ErdosRenyi[int64](n, 8, 916)
	fig := Figure{
		ID:     "spgemm",
		Title:  fmt.Sprintf("Sparse SUMMA SpGEMM stages and triangle counting, ER n=%s d=8", human(n)),
		XLabel: "locales",
		YLabel: "time",
	}
	sr := semiring.PlusTimes[int64]()
	for _, p := range []int{1, 4, 9, 16} {
		rt, err := newRT(p, 24)
		if err != nil {
			return fig, err
		}
		tr := ensureTracer(rt)
		mark := len(tr.Roots())
		a := dist.MatFromCSR(rt, a0)
		b := dist.MatFromCSR(rt, b0)
		if _, err := core.SpGEMMDist(rt, a, b, sr); err != nil {
			return fig, err
		}
		byName := make(map[string]float64)
		sumSpans(tr.Roots()[mark:], byName)
		for _, st := range []struct{ span, series string }{
			{"SUMMABroadcast", "broadcast"},
			{"SUMMAMultiply", "multiply"},
			{"SUMMAMerge", "merge"},
		} {
			fig.Points = append(fig.Points, Point{st.series, p, byName[st.span] / 1e9})
		}

		trt, err := newRT(p, 24)
		if err != nil {
			return fig, err
		}
		g := dist.MatFromCSR(trt, a0)
		if _, err := algorithms.TriangleCountDist(trt, g); err != nil {
			return fig, err
		}
		fig.Points = append(fig.Points, Point{"triangle count", p, trt.S.ElapsedSeconds()})
	}
	return fig, nil
}
