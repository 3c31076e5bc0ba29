package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/sparse"
)

// inspectStrategies names the per-axis configurations AblInspect sweeps: for
// each dispatch axis, both hand-picked pins plus the automatic inspector.
var inspectStrategies = []struct {
	name string
	s    inspect.Strategy
}{
	{"fine", inspect.Strategy{Comm: inspect.CommFine}},
	{"bulk", inspect.Strategy{Comm: inspect.CommBulk}},
	{"auto", inspect.Strategy{}},
}

// AblInspect quantifies the inspector–executor layer (DESIGN.md §14): each
// dispatch axis runs under its hand-picked pins and under the automatic
// cost-model selection, on the same inputs. Results are bitwise identical
// across strategies; the figure shows the modeled-time gap. The acceptance
// contract (enforced by TestAblInspectAutoCompetitive) is that "auto" stays
// within 5% of the best pin and strictly beats the worst on every input.
//
//   - comm: distributed BFS — fine-grained element traffic vs the bulk
//     collectives. On these inputs bulk wins every round, so "bfs auto"
//     equals "bfs bulk" at every locale count.
//   - dir: direction-optimizing BFS — push vs pull per round, the generalized
//     alpha heuristic.
func AblInspect(scale Scale) (Figure, error) {
	n := scaled(scale, 120_000)
	ai := sparse.ErdosRenyi[int64](n, 8, 917)
	fig := Figure{
		ID:     "ablinspect",
		Title:  fmt.Sprintf("Dispatch axes: hand-picked pins vs inspector auto, ER n=%s d=8", human(n)),
		XLabel: "locales",
		YLabel: "time",
	}

	// Comm axis: fine vs bulk vs auto over distributed BFS.
	for _, p := range []int{2, 4, 8, 16, 32} {
		for _, st := range inspectStrategies {
			rt, err := newInspRT(p, 24, st.s)
			if err != nil {
				return fig, err
			}
			if _, err := algorithms.BFSDist(rt, dist.MatFromCSR(rt, ai), 0); err != nil {
				return fig, err
			}
			fig.Points = append(fig.Points, Point{"bfs " + st.name, p, rt.S.ElapsedSeconds()})
		}
	}

	// Dir axis: push vs pull vs auto over the direction-optimizing BFS on
	// one locale (x is the modeled thread count).
	for _, t := range threadSweep {
		for _, st := range []struct {
			name string
			s    inspect.Strategy
		}{
			{"push", inspect.Strategy{Dir: inspect.DirPush}},
			{"pull", inspect.Strategy{Dir: inspect.DirPull}},
			{"auto", inspect.Strategy{}},
		} {
			rt, err := newInspRT(1, t, st.s)
			if err != nil {
				return fig, err
			}
			rt.ShmEngine = int(core.EngineBucket)
			if _, err := algorithms.BFSDirectionOptimizing(rt, dist.MatFromCSR(rt, ai), 0, 0); err != nil {
				return fig, err
			}
			fig.Points = append(fig.Points, Point{"dobfs " + st.name, t, rt.S.ElapsedSeconds()})
		}
	}
	return fig, nil
}

// newInspRT builds a figure runtime carrying an inspector with the given
// strategy (AblInspect controls strategies per-run, bypassing SetStrategy).
func newInspRT(p, threads int, s inspect.Strategy) (*locale.Runtime, error) {
	rt, err := newRT(p, threads)
	if err != nil {
		return nil, err
	}
	rt.Insp = inspect.New(s)
	return rt, nil
}
