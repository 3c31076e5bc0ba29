package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// countSpans counts matching spans anywhere in the forest. A plain token
// matches span names; a token containing '=' matches span tags — "k=v"
// requires the exact tag, "k=" matches any span carrying tag key k (so
// "strategy=" asserts that dispatch decisions were traced at all).
func countSpans(spans []*trace.Span, want string) int {
	key, val := "", ""
	if i := strings.IndexByte(want, '='); i >= 0 {
		key, val = want[:i], want[i+1:]
	}
	n := 0
	for _, sp := range spans {
		if key == "" {
			if sp.Name == want {
				n++
			}
		} else {
			for _, tg := range sp.Tags {
				if tg.Key == key && (val == "" || tg.Value == val) {
					n++
					break
				}
			}
		}
		n += countSpans(sp.Children, want)
	}
	return n
}

func TestCountSpans(t *testing.T) {
	forest := []*trace.Span{
		{Name: "SpMSpVDist", Tags: []trace.Tag{trace.T("strategy", "bulk")}, Children: []*trace.Span{
			{Name: "SparseRowAllGather"},
			{Name: "SUMMAMerge", Tags: []trace.Tag{trace.T("stage", "merge")}},
		}},
		{Name: "SpMSpVDist", Tags: []trace.Tag{trace.T("strategy", "fine")}},
	}
	for _, tc := range []struct {
		want string
		n    int
	}{
		{"SpMSpVDist", 2},      // name match
		{"strategy=bulk", 1},   // exact k=v
		{"strategy=", 2},       // any value of k
		{"stage=merge", 1},     // only in a nested child
		{"SUMMAMerge", 1},      // a nested child's name
		{"SpGEMMDist", 0},      // no match
		{"stage=broadcast", 0}, // key present, value absent
	} {
		if got := countSpans(forest, tc.want); got != tc.n {
			t.Errorf("countSpans(%q) = %d, want %d", tc.want, got, tc.n)
		}
	}
}

// TestFigureSpans runs the figures the trace export is read for and asserts
// that every instrumented kernel still reports spans and the inspector still
// tags its dispatch decisions. Each case installs a fresh tracer; the tracer
// is global to internal/bench, so this test lives in gbbench's own binary.
func TestFigureSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping figure regeneration in -short mode")
	}
	for _, tc := range []struct {
		figures []string
		want    []string
	}{
		{
			figures: []string{"fig7a", "fig7b", "fig7c", "ablengine", "ablbulk", "ablfuse", "ablinspect"},
			want: []string{"SpMSpVShm", "SpMSpVDist", "SpMSpVDistBulk", "SparseRowAllGather", "ColMergeScatter",
				"FusedBFSRound", "FusedSpMVUpdate", "strategy=", "reason="},
		},
		{
			figures: []string{"spgemm"},
			want: []string{"SpGEMMDist", "SUMMABroadcast", "SUMMAMultiply", "SUMMAMerge",
				"op=spgemm", "stage=broadcast", "stage=multiply", "stage=merge"},
		},
	} {
		tr := bench.EnableTrace()
		for _, id := range tc.figures {
			run := bench.Lookup(id)
			if run == nil {
				t.Fatalf("unknown figure %q", id)
			}
			if _, err := run(bench.ScaleSmall); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		for _, want := range tc.want {
			if countSpans(tr.Roots(), want) == 0 {
				t.Errorf("%v: %q reported zero spans", tc.figures, want)
			}
		}
	}
}
