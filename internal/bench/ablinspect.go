package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
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
// within 5% of the best pin and strictly beats the worst on every input of
// the comm and dir axes, and equals the gather pin on the place axis.
//
//   - comm: distributed BFS — fine-grained element traffic vs the bulk
//     collectives. On these inputs bulk wins every round, so "bfs auto"
//     equals "bfs bulk" at every locale count.
//   - place: SSSP's repeated SpMV. Its input is always gathered along row
//     teams (replicating it never prices lower, DESIGN.md §14), so "sssp
//     auto" equals the "sssp gather" pin.
//   - dir: direction-optimizing BFS — push vs pull per round, the generalized
//     alpha heuristic.
func AblInspect(scale Scale) (Figure, error) {
	n := scaled(scale, 120_000)
	ai := sparse.ErdosRenyi[int64](n, 8, 917)
	af := sparse.ErdosRenyi[float64](n, 8, 918)
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

	// Place axis: the gather pin vs auto over SSSP's SpMV rounds.
	for _, p := range []int{4, 8, 16, 32} {
		for _, st := range []struct {
			name string
			s    inspect.Strategy
		}{
			{"gather", inspect.Strategy{Place: inspect.PlaceGather}},
			{"auto", inspect.Strategy{}},
		} {
			rt, err := newInspRT(p, 24, st.s)
			if err != nil {
				return fig, err
			}
			if _, _, err := algorithms.SSSPDist(rt, dist.MatFromCSR(rt, af), 0); err != nil {
				return fig, err
			}
			fig.Points = append(fig.Points, Point{"sssp " + st.name, p, rt.S.ElapsedSeconds()})
		}
	}

	// Dir axis: push vs pull vs auto over the direction-optimizing BFS
	// (shared-memory; x is the modeled thread count).
	for _, t := range threadSweep {
		for _, st := range []struct {
			name string
			s    inspect.Strategy
		}{
			{"push", inspect.Strategy{Dir: inspect.DirPush}},
			{"pull", inspect.Strategy{Dir: inspect.DirPull}},
			{"auto", inspect.Strategy{}},
		} {
			rt, err := locale.New(machine.Edison(), 1, t)
			if err != nil {
				return fig, err
			}
			cfg := core.ShmConfig{
				Threads: t, Workers: 1, Engine: core.EngineBucket,
				Sim: rt.S, Pool: rt.WP, Scratch: rt.Scratch,
				Insp: inspect.New(st.s),
			}
			if _, err := algorithms.BFSDirectionOptimizingCfg(ai, 0, 0, cfg); err != nil {
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
