package inspect

import (
	"fmt"
	"strings"
	"testing"
)

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{AxisComm.String(), "comm"},
		{AxisDir.String(), "dir"},
		{AxisPlace.String(), "place"},
		{Axis(99).String(), "axis?"},
		{commAuto.String(), "auto"},
		{CommFine.String(), "fine"},
		{CommBulk.String(), "bulk"},
		{DirAuto.String(), "auto"},
		{DirPush.String(), "push"},
		{DirPull.String(), "pull"},
		{placeAuto.String(), "auto"},
		{PlaceGather.String(), "gather"},
		{PlaceReplicate.String(), "replicate"},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %q, want %q", i, c.got, c.want)
		}
	}
}

func TestDecideForced(t *testing.T) {
	in := New(Strategy{Comm: CommBulk, Dir: DirPull, Place: PlaceReplicate})
	// Costs say the opposite of every pin; the pins must win.
	if got := in.DecideComm("op", 1, 100, "rf", "rb"); got != CommBulk {
		t.Errorf("DecideComm under CommBulk pin = %v", got)
	}
	if got := in.DecideDir("op", 1, 100, "rp", "rq"); got != DirPull {
		t.Errorf("DecideDir under DirPull pin = %v", got)
	}
	if got := in.DecidePlace("op", 1, 100, "rg", "rr"); got != PlaceReplicate {
		t.Errorf("DecidePlace under PlaceReplicate pin = %v", got)
	}
	for _, d := range in.Decisions() {
		if d.Reason != ReasonForced || d.Cost != 0 || d.Alt != 0 {
			t.Errorf("forced decision recorded %+v, want reason=forced cost=alt=0", d)
		}
	}
	// The opposite pins, same exercise.
	in = New(Strategy{Comm: CommFine, Dir: DirPush, Place: PlaceGather})
	if got := in.DecideComm("op", 100, 1, "rf", "rb"); got != CommFine {
		t.Errorf("DecideComm under CommFine pin = %v", got)
	}
	if got := in.DecideDir("op", 100, 1, "rp", "rq"); got != DirPush {
		t.Errorf("DecideDir under DirPush pin = %v", got)
	}
	if got := in.DecidePlace("op", 100, 1, "rg", "rr"); got != PlaceGather {
		t.Errorf("DecidePlace under PlaceGather pin = %v", got)
	}
}

func TestDecideModeledAndTies(t *testing.T) {
	in := New(Strategy{})
	if got := in.DecideComm("op", 5, 10, "rf", "rb"); got != CommFine {
		t.Errorf("cheaper fine not picked: %v", got)
	}
	if d := in.Last(); d.Reason != "rf" || d.Cost != 5 || d.Alt != 10 {
		t.Errorf("decision recorded %+v, want reason=rf cost=5 alt=10", d)
	}
	if got := in.DecideComm("op", 10, 5, "rf", "rb"); got != CommBulk {
		t.Errorf("cheaper bulk not picked: %v", got)
	}
	if d := in.Last(); d.Reason != "rb" || d.Cost != 5 || d.Alt != 10 {
		t.Errorf("decision recorded %+v, want reason=rb cost=5 alt=10", d)
	}
	// Ties break toward the paper's idiomatic variants: fine, push, gather.
	if got := in.DecideComm("op", 7, 7, "rf", "rb"); got != CommFine {
		t.Errorf("comm tie broke to %v, want fine", got)
	}
	if got := in.DecideDir("op", 7, 7, "rp", "rq"); got != DirPush {
		t.Errorf("dir tie broke to %v, want push", got)
	}
	if got := in.DecidePlace("op", 7, 7, "rg", "rr"); got != PlaceGather {
		t.Errorf("place tie broke to %v, want gather", got)
	}
}

func TestObserveCalibration(t *testing.T) {
	in := New(Strategy{})
	// Bulk is estimated marginally cheaper and wins.
	if got := in.DecideComm("op", 10, 9, "rf", "rb"); got != CommBulk {
		t.Fatalf("precondition: bulk should win, got %v", got)
	}
	// Bulk then runs 4x over its estimate (clamped); the calibrated model
	// flips the next identical decision to fine.
	in.Observe(AxisComm, uint8(CommBulk), 9, 100)
	if got := in.DecideComm("op", 10, 9, "rf", "rb"); got != CommFine {
		t.Errorf("calibration did not flip the decision: %v", got)
	}
	if d := in.Last(); d.Cost != 10 || d.Alt != 36 {
		t.Errorf("calibrated costs %+v, want cost=10 alt=36 (9 * clamped ratio 4)", d)
	}
	// A second observation moves the EWMA a quarter of the way back.
	in.Observe(AxisComm, uint8(CommBulk), 9, 9) // ratio 1
	in.DecideComm("op", 1, 1, "rf", "rb")
	if d := in.Last(); d.Alt != 3.25 {
		t.Errorf("EWMA after 4 then 1 = %v, want 3.25", d.Alt)
	}
}

func TestObserveClampAndIgnore(t *testing.T) {
	in := New(Strategy{})
	// Non-positive inputs are ignored: scale stays 1.
	in.Observe(AxisDir, uint8(DirPush), 0, 5)
	in.Observe(AxisDir, uint8(DirPush), 5, 0)
	in.Observe(AxisDir, uint8(DirPush), -1, -1)
	in.DecideDir("op", 3, 100, "rp", "rq")
	if d := in.Last(); d.Cost != 3 {
		t.Errorf("ignored observations changed the scale: cost %v, want 3", d.Cost)
	}
	// A wildly fast observation clamps at 1/4.
	in.Observe(AxisDir, uint8(DirPull), 100, 1)
	in.DecideDir("op", 100, 100, "rp", "rq")
	if d := in.Last(); d.Choice != "pull" || d.Cost != 25 {
		t.Errorf("low clamp: got %+v, want pull at cost 25", d)
	}
	// Observe on a nil inspector is a no-op, not a panic (executors call it
	// unconditionally).
	var nilIn *Inspector
	nilIn.Observe(AxisComm, 1, 1, 1)
}

func TestRingWrap(t *testing.T) {
	in := New(Strategy{})
	total := ringSize + 50
	for i := 0; i < total; i++ {
		in.Note(fmt.Sprintf("op%d", i), AxisComm, "fine", ReasonSingleLocale)
	}
	if in.Len() != total {
		t.Fatalf("Len = %d, want %d", in.Len(), total)
	}
	ds := in.Decisions()
	if len(ds) != ringSize {
		t.Fatalf("Decisions retained %d, want %d", len(ds), ringSize)
	}
	if want := fmt.Sprintf("op%d", total-ringSize); ds[0].Op != want {
		t.Errorf("oldest retained decision %q, want %q", ds[0].Op, want)
	}
	if want := fmt.Sprintf("op%d", total-1); ds[len(ds)-1].Op != want {
		t.Errorf("newest retained decision %q, want %q", ds[len(ds)-1].Op, want)
	}
	if lines := strings.Count(in.Table(), "\n"); lines != ringSize {
		t.Errorf("Table has %d lines, want %d", lines, ringSize)
	}
}

func TestCloneIndependence(t *testing.T) {
	var nilIn *Inspector
	if nilIn.Clone() != nil {
		t.Error("nil Clone is not nil")
	}
	in := New(Strategy{Dir: DirPull})
	in.Note("a", AxisDir, "pull", ReasonForced)
	in.Observe(AxisComm, uint8(CommBulk), 1, 4)
	cp := in.Clone()
	if cp.Strategy() != in.Strategy() {
		t.Error("clone strategy differs")
	}
	if cp.Table() != in.Table() {
		t.Error("clone history differs")
	}
	// Divergence after the clone stays local to each copy.
	in.Note("b", AxisDir, "pull", ReasonForced)
	cp.Note("c", AxisDir, "pull", ReasonForced)
	if in.Len() != 2 || cp.Len() != 2 {
		t.Fatalf("Len after divergence: orig %d clone %d, want 2 and 2", in.Len(), cp.Len())
	}
	if in.Last().Op != "b" || cp.Last().Op != "c" {
		t.Error("divergent decisions leaked between clones")
	}
	// Calibration state copied at clone time, independent after.
	cp.Observe(AxisComm, uint8(CommBulk), 1, 4)
	in.DecideComm("op", 1, 1, "rf", "rb")
	if d := in.Last(); d.Alt != 4 {
		t.Errorf("original calibration %v, want the pre-clone EWMA 4", d.Alt)
	}
}

func TestTableFormat(t *testing.T) {
	in := New(Strategy{})
	if in.Table() != "" {
		t.Error("empty inspector renders a nonempty table")
	}
	in.Note("SpMSpV", AxisComm, "fine", ReasonSingleLocale)
	in.DecideDir("DOBFS", 10, 5, "frontier-edges", "unvisited-scan")
	want := "SpMSpV comm=fine single-locale\nDOBFS dir=pull unvisited-scan\n"
	if got := in.Table(); got != want {
		t.Errorf("Table:\n%q\nwant:\n%q", got, want)
	}
}

func TestNilAccessors(t *testing.T) {
	var in *Inspector
	if in.Len() != 0 {
		t.Error("nil Len != 0")
	}
	if (in.Last() != Decision{}) {
		t.Error("nil Last not zero")
	}
	if in.Decisions() != nil {
		t.Error("nil Decisions not nil")
	}
}
