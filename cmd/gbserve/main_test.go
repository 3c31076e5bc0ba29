package main

import (
	"testing"

	"repro/gb"
)

func TestBuildGraphSpecs(t *testing.T) {
	name, a, err := buildGraph("web=rmat:6:8:1")
	if err != nil {
		t.Fatal(err)
	}
	if name != "web" || a.NRows != 64 || a.NNZ() == 0 {
		t.Fatalf("rmat spec: name=%q rows=%d nnz=%d", name, a.NRows, a.NNZ())
	}
	// The third ER field is a mean degree: 100 vertices at degree 8 is about
	// 800 edges.
	name, a, err = buildGraph("mesh=er:100:8:7")
	if err != nil {
		t.Fatal(err)
	}
	if name != "mesh" || a.NRows != 100 || a.NNZ() < 600 || a.NNZ() > 1000 {
		t.Fatalf("er spec: name=%q rows=%d nnz=%d, want about 800 edges", name, a.NRows, a.NNZ())
	}
	for _, bad := range []string{
		"noequals", "g=unknown:1:2:3", "g=rmat:6:8", "g=rmat:x:8:1", "g=er:100:x:7",
	} {
		if _, _, err := buildGraph(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]gb.RecoveryPolicy{
		"redistribute": gb.Redistribute,
		"failover":     gb.Failover,
		"besteffort":   gb.BestEffort,
	}
	for in, want := range cases {
		got, err := parsePolicy(in)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parsePolicy("abandon"); err == nil {
		t.Error("unknown policy accepted")
	}
}
