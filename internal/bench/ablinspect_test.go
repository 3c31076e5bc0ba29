package bench

import "testing"

// TestAblInspectAutoCompetitive is the acceptance contract of the
// inspector–executor layer: on every input of the ablation, the automatic
// strategy lands within 5% of the best hand-picked pin and strictly beats the
// worst one — auto-dispatch never costs more than guessing wrong.
func TestAblInspectAutoCompetitive(t *testing.T) {
	fig := runFig(t, AblInspect)
	axes := []struct {
		alg  string
		pins []string
	}{
		{"bfs", []string{"fine", "bulk"}},
		{"sssp", []string{"gather", "replicate"}},
		{"dobfs", []string{"push", "pull"}},
	}
	for _, ax := range axes {
		xsSet := map[int]bool{}
		for _, p := range fig.Points {
			if p.Series == ax.alg+" auto" {
				xsSet[p.X] = true
			}
		}
		if len(xsSet) == 0 {
			t.Fatalf("%s: no auto points in figure", ax.alg)
		}
		for x := range xsSet {
			auto, ok := fig.Get(ax.alg+" auto", x)
			if !ok {
				t.Fatalf("%s auto missing at x=%d", ax.alg, x)
			}
			best, worst := 0.0, 0.0
			for i, pin := range ax.pins {
				v, ok := fig.Get(ax.alg+" "+pin, x)
				if !ok {
					t.Fatalf("%s %s missing at x=%d", ax.alg, pin, x)
				}
				if i == 0 || v < best {
					best = v
				}
				if v > worst {
					worst = v
				}
			}
			if auto > best*1.05 {
				t.Errorf("%s@%d: auto %.6fs exceeds best pin %.6fs by more than 5%%", ax.alg, x, auto, best)
			}
			if auto >= worst {
				t.Errorf("%s@%d: auto %.6fs does not beat worst pin %.6fs", ax.alg, x, auto, worst)
			}
		}
	}
}
