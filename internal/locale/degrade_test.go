package locale

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
)

// Degrade coverage on awkward grids: prime locale counts (3, 7, 13 — where
// the grid degenerates to 1×P and block bands are maximally uneven), the
// oversubscribed one-node placement of Fig 10, and chains of two losses.

func degradeRT(t *testing.T, p int, oneNode bool) *Runtime {
	t.Helper()
	var g *Grid
	var err error
	if oneNode {
		g, err = NewGridOnOneNode(p)
	} else {
		g, err = NewGrid(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return NewWithGrid(machine.Edison(), g, 24)
}

func TestDegradePrimeAndOversubscribedGrids(t *testing.T) {
	for _, p := range []int{3, 7, 13} {
		for _, oneNode := range []bool{false, true} {
			rt := degradeRT(t, p, oneNode)
			rt.WithFault(fault.Plan{Seed: 1, CrashLocale: -1})
			dead := p / 2
			before := rt.S.Elapsed()
			host, err := rt.Degrade(dead, 250_000)
			if err != nil {
				t.Fatalf("p=%d oneNode=%v: %v", p, oneNode, err)
			}
			if want := (dead + 1) % p; host != want {
				t.Errorf("p=%d: host = %d, want %d", p, host, want)
			}
			if got := rt.G.HostOf(dead); got != host {
				t.Errorf("p=%d: HostOf(dead) = %d, want %d", p, got, host)
			}
			for l := 0; l < p; l++ {
				if l != dead && rt.G.HostOf(l) != l {
					t.Errorf("p=%d: surviving locale %d was remapped to %d", p, l, rt.G.HostOf(l))
				}
			}
			if rt.S.Elapsed() <= before {
				t.Errorf("p=%d: degradation must charge the detection penalty", p)
			}
			if st := rt.Health.States()[dead]; st != health.Dead {
				t.Errorf("p=%d: detector state of dead locale = %v, want dead", p, st)
			}
			// The oversubscribed grid keeps all locales on one node.
			if oneNode && rt.G.Nodes() != 1 {
				t.Errorf("p=%d: oversubscribed grid reports %d nodes", p, rt.G.Nodes())
			}
		}
	}
}

func TestDegradeDoubleDegradeChainsHosts(t *testing.T) {
	for _, p := range []int{3, 7, 13} {
		rt := degradeRT(t, p, false)
		first := p / 2
		second := (first + 1) % p // the first adopter dies next
		if _, err := rt.Degrade(first, 1_000); err != nil {
			t.Fatalf("p=%d: first degrade: %v", p, err)
		}
		host2, err := rt.Degrade(second, 1_000)
		if err != nil {
			t.Fatalf("p=%d: second degrade: %v", p, err)
		}
		if want := (second + 1) % p; host2 != want {
			t.Errorf("p=%d: second host = %d, want %d", p, host2, want)
		}
		// The first dead locale must follow its (now dead) adopter onward:
		// no logical locale may remain hosted on a dead one.
		if got := rt.G.HostOf(first); got != host2 {
			t.Errorf("p=%d: HostOf(first dead) = %d, want chained to %d", p, got, host2)
		}
		if got := rt.G.HostOf(second); got != host2 {
			t.Errorf("p=%d: HostOf(second dead) = %d, want %d", p, got, host2)
		}
		// Charges against either dead logical id must land on the live host's
		// clock.
		beforeHost := rt.S.Clock(host2)
		rt.S.Advance(first, 500)
		if got := rt.S.Clock(host2); got != beforeHost+500 {
			t.Errorf("p=%d: charge to first dead moved host clock %v -> %v, want +500", p, beforeHost, got)
		}
		if rt.S.Clock(first) != rt.S.Clock(host2) {
			t.Errorf("p=%d: dead locale's clock must alias the live host's", p)
		}
	}
}

func TestDegradeReverseOrderChain(t *testing.T) {
	// Kill the adopter first, then the locale that would have adopted from
	// it: Degrade(4) then Degrade(3) on 7 locales must route 3 through the
	// already-dead 4 to the live 5.
	rt := degradeRT(t, 7, false)
	if _, err := rt.Degrade(4, 1_000); err != nil {
		t.Fatal(err)
	}
	host, err := rt.Degrade(3, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if host != 4 {
		t.Fatalf("host = %d, want logical 4", host)
	}
	if got := rt.G.HostOf(3); got != 5 {
		t.Errorf("HostOf(3) = %d, want physical 5 (4 is dead, hosted by 5)", got)
	}
}

func TestDegradeRejectsBadInput(t *testing.T) {
	rt := degradeRT(t, 1, false)
	if _, err := rt.Degrade(0, 1_000); err == nil {
		t.Error("degrading a 1-locale runtime must fail")
	}
	rt = degradeRT(t, 3, false)
	if _, err := rt.Degrade(-1, 1_000); err == nil {
		t.Error("negative locale must fail")
	}
	if _, err := rt.Degrade(3, 1_000); err == nil {
		t.Error("out-of-range locale must fail")
	}
}
