package health

import (
	"testing"

	"repro/internal/trace"
)

func TestStateMachineAliveSuspectDead(t *testing.T) {
	d := New(Config{}, 4)
	for l := 0; l < 4; l++ {
		if got := d.States()[l]; got != Alive {
			t.Fatalf("initial States()[%d) = %v, want alive", l, got)
		}
	}

	// Alive poll at 7.2ms records the 7ms heartbeat; the crash observed at
	// 7.5ms is before the 10ms timeout, so the transition is stamped at the
	// poll (early detection by a failing collective).
	d.Observe(2, false, 7_200_000)
	d.Observe(2, true, 7_500_000)
	if got := d.States()[2]; got != Suspect {
		t.Fatalf("after Observe: States()[2] = %v, want suspect", got)
	}
	ev := d.Events()
	if len(ev) != 1 || ev[0].Locale != 2 || ev[0].From != Alive || ev[0].To != Suspect {
		t.Fatalf("events = %+v, want one alive->suspect for locale 2", ev)
	}
	if ev[0].AtNS != 7_500_000 {
		t.Errorf("suspect at %.0f, want clamped to observation time 7500000", ev[0].AtNS)
	}

	// A late poll back-dates suspicion to the missed-heartbeat timeout:
	// last beat 5ms, down first seen at 12ms -> suspect at 5+3 = 8ms.
	d2 := New(Config{}, 4)
	d2.Observe(2, false, 5_200_000)
	d2.Observe(2, true, 12_000_000)
	if at := d2.SuspectedAt(2); at != 8_000_000 {
		t.Errorf("SuspectedAt = %.0f, want 8000000 (back-dated)", at)
	}

	d.Confirm(2, 13_000_000)
	if got := d.States()[2]; got != Dead {
		t.Fatalf("after Confirm: States()[2] = %v, want dead", got)
	}
	ev = d.Events()
	if len(ev) != 2 || ev[1].From != Suspect || ev[1].To != Dead || ev[1].AtNS != 13_000_000 {
		t.Fatalf("events = %+v, want suspect->dead at 13ms", ev)
	}

	// Dead is terminal; repeated observations and confirms are no-ops.
	d.Observe(2, true, 14_000_000)
	d.Confirm(2, 15_000_000)
	if len(d.Events()) != 2 {
		t.Error("dead locale must not transition again")
	}
}

func TestObserveAliveNeverTransitions(t *testing.T) {
	d := New(Config{}, 3)
	d.Observe(1, false, 5_000_000)
	if d.States()[1] != Alive || len(d.Events()) != 0 {
		t.Error("observing an alive locale must not transition it")
	}
	// Out-of-range and negative ids are ignored.
	d.Observe(-1, true, 1)
	d.Observe(99, true, 1)
	if len(d.Events()) != 0 {
		t.Error("out-of-range observations must be dropped")
	}
}

func TestConfirmWithoutObserveRecordsAliveToDead(t *testing.T) {
	d := New(Config{}, 2)
	d.Confirm(0, 4_000_000)
	ev := d.Events()
	if len(ev) != 1 || ev[0].From != Alive || ev[0].To != Dead {
		t.Fatalf("events = %+v, want one alive->dead", ev)
	}
	if d.SuspectedAt(0) != -1 {
		t.Error("SuspectedAt must be -1 when suspicion was never recorded")
	}
}

func TestTimelineDeterministicUnderReplay(t *testing.T) {
	// The detector is a pure function of its observation stream: replaying
	// the same (locale, down, now) sequence yields identical events.
	run := func() []Event {
		d := New(Config{HeartbeatNS: 500_000, SuspectAfterNS: 1_500_000}, 5)
		d.Observe(3, false, 100_000)
		d.Observe(3, true, 2_250_000)
		d.Observe(1, true, 4_000_000)
		d.Confirm(3, 5_000_000)
		return d.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay produced %d events vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Locale 3's only alive poll was at 0.1ms (beat 0); the down poll at
	// 2.25ms back-dates suspicion to the 0+1.5ms timeout expiry.
	if a[0].AtNS != 1_500_000 {
		t.Errorf("suspect at %.0f, want 1500000", a[0].AtNS)
	}
}

func TestNilDetectorIsInert(t *testing.T) {
	var d *Detector
	d.Observe(0, true, 1)
	d.Confirm(0, 1)
	d.SetTracer(nil)
	if d.States() != nil || d.Events() != nil {
		t.Error("nil detector must report everything alive and empty")
	}
	if d.SuspectedAt(0) != -1 {
		t.Error("nil detector SuspectedAt must be -1")
	}
	if (d.Config() != Config{}) {
		t.Error("nil detector config must be zero")
	}
}

func TestTransitionsEmitTraceSpans(t *testing.T) {
	tr := trace.New()
	d := New(Config{}, 3)
	d.SetTracer(tr)
	d.Observe(1, true, 2_000_000)
	d.Confirm(1, 3_000_000)
	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d spans, want 2 (suspect + dead)", len(roots))
	}
	for _, sp := range roots {
		if sp.Name != "HealthTransition" {
			t.Errorf("span name = %q, want HealthTransition", sp.Name)
		}
	}
	// Tag payloads identify the transition.
	wantTo := []string{"suspect", "dead"}
	for i, sp := range roots {
		var to string
		for _, tag := range sp.Tags {
			if tag.Key == "to" {
				to = tag.Value
			}
		}
		if to != wantTo[i] {
			t.Errorf("span %d to-tag = %q, want %q", i, to, wantTo[i])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	d := New(Config{}, 1)
	if c := d.Config(); c != DefaultConfig() {
		t.Errorf("zero config = %+v, want defaults %+v", c, DefaultConfig())
	}
	c := Config{HeartbeatNS: 42}.withDefaults()
	if c.HeartbeatNS != 42 || c.SuspectAfterNS != DefaultConfig().SuspectAfterNS {
		t.Errorf("partial config not default-filled: %+v", c)
	}
}
