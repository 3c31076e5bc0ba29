package algorithms

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/sparse"
)

func TestSSSPDistMatchesLocal(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](161, 5, 61)
	want := RefSSSP(a0, 4)
	for _, p := range []int{1, 2, 4, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		got, rounds, err := SSSPDist(rt, a, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rounds < 1 {
			t.Error("no rounds")
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("p=%d: dist[%d] = %d, want %d", p, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPDistErrors(t *testing.T) {
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](20, 3, 1))
	if _, _, err := SSSPDist(rt, a, -1); err == nil {
		t.Error("negative source accepted")
	}
	if _, _, err := SSSPDist(rt, a, 20); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestPageRankDistMatchesLocal(t *testing.T) {
	a0 := sparse.ErdosRenyi[float64](120, 4, 62)
	want := RefPageRank(a0, 0.85, 1e-10, 100)
	for _, p := range []int{1, 4, 6} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		got, iters, err := PageRankDist(rt, a, 0.85, 1e-10, 100)
		if err != nil {
			t.Fatal(err)
		}
		if iters < 1 {
			t.Error("no iterations")
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("p=%d: rank[%d] = %v, want %v", p, v, got[v], want[v])
			}
		}
	}
}

func TestCCDistMatchesLocal(t *testing.T) {
	// Undirected graph with several components.
	coo := sparse.NewCOO[int64](30, 30)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {10, 11}, {11, 12}, {20, 21}, {25, 26}, {26, 27}, {27, 25}}
	for _, e := range edges {
		coo.Append(e[0], e[1], 1)
		coo.Append(e[1], e[0], 1)
	}
	a0, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, wantCount := RefCC(a0)
	for _, p := range []int{1, 4, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		labels, count, err := CCDist(rt, a)
		if err != nil {
			t.Fatal(err)
		}
		if count != wantCount {
			t.Fatalf("p=%d: components = %d, want %d", p, count, wantCount)
		}
		for v := range labels {
			if labels[v] != wantLabels[v] {
				t.Fatalf("p=%d: labels[%d] = %d, want %d", p, v, labels[v], wantLabels[v])
			}
		}
	}
}

func TestDistAlgorithmsChargeCommunication(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](100, 4, 63)
	rt := newRT(t, 9)
	a := dist.MatFromCSR(rt, a0)
	if _, _, err := SSSPDist(rt, a, 0); err != nil {
		t.Fatal(err)
	}
	if rt.S.Elapsed() <= 0 {
		t.Error("distributed SSSP charged no time")
	}
}

func TestBFSDistMaskedMatchesBFSDist(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](400, 6, 81)
	want := RefBFS(a0, 5)
	for _, p := range []int{1, 4, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		res, err := BFSDistMasked(rt, a, 5)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Level[v] != want[v] {
				t.Fatalf("p=%d: level[%d] = %d, want %d", p, v, res.Level[v], want[v])
			}
		}
		// Parent consistency.
		for v := range want {
			pv := res.Parent[v]
			if v == 5 || res.Level[v] < 0 {
				continue
			}
			if res.Level[int(pv)] != res.Level[v]-1 {
				t.Fatalf("p=%d: parent level wrong for %d", p, v)
			}
		}
	}
}

func TestBFSDistMaskedSendsFewerMessages(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](3000, 10, 82)
	rtPlain := newRT(t, 9)
	aP := dist.MatFromCSR(rtPlain, a0)
	if _, err := BFSDist(rtPlain, aP, 0); err != nil {
		t.Fatal(err)
	}
	rtMasked := newRT(t, 9)
	aM := dist.MatFromCSR(rtMasked, a0)
	if _, err := BFSDistMasked(rtMasked, aM, 0); err != nil {
		t.Fatal(err)
	}
	if rtMasked.S.Traffic().FineOps >= rtPlain.S.Traffic().FineOps {
		t.Errorf("fused-mask BFS sent %d fine-grained ops vs %d unmasked — expected fewer",
			rtMasked.S.Traffic().FineOps, rtPlain.S.Traffic().FineOps)
	}
}

func TestBFSDistMaskedErrors(t *testing.T) {
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](20, 3, 1))
	if _, err := BFSDistMasked(rt, a, -1); err == nil {
		t.Error("bad source accepted")
	}
}
