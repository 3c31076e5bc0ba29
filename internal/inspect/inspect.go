// Package inspect implements the inspector half of an inspector–executor
// layer for the distributed kernels: before a kernel runs, the executor asks
// the inspector which communication variant to use — bulk collective vs
// fine-grained element traffic, push vs pull traversal, replicate-the-vector
// vs gather — and the inspector answers from modeled costs computed off the
// op's sampled access pattern (frontier density, per-locale nnz, row skew).
//
// The inspector is deliberately free of dependencies on the runtime packages:
// the executor (internal/core) samples the signals and prices each variant
// with the simulator's non-mutating estimators, and hands the inspector plain
// float64 costs. The inspector applies its per-variant calibration (an EWMA
// of observed/estimated cost fed back after each kernel), picks the cheaper
// side, and records the decision in a fixed-size ring so tests and traces can
// replay the exact strategy sequence. All state is plain arrays: steady-state
// decisions allocate nothing.
//
// Determinism: decisions depend only on the strategy, the cost inputs, and
// the calibration state accumulated by earlier Observe calls — all of which
// are deterministic functions of the workload. The same graph and seed yield
// the same decision sequence.
package inspect

// Axis identifies one dispatch dimension.
type Axis uint8

const (
	// AxisComm selects bulk collectives vs fine-grained element traffic.
	AxisComm Axis = iota
	// AxisDir selects push (top-down SpMSpV) vs pull (bottom-up scan).
	AxisDir
	// AxisPlace selects how SpMV distributes its input vector: a row-team
	// gather or a full replication.
	AxisPlace
	numAxes
)

// String returns the axis name used in decision tables and span tags.
func (a Axis) String() string {
	switch a {
	case AxisComm:
		return "comm"
	case AxisDir:
		return "dir"
	case AxisPlace:
		return "place"
	}
	return "axis?"
}

// Comm is the communication-shape choice of AxisComm.
type Comm uint8

const (
	// commAuto defers the choice to the inspector (the zero value).
	commAuto Comm = iota
	// CommFine forces the fine-grained per-element paths (the paper's
	// idiomatic Listings; SpMSpVDist).
	CommFine
	// CommBulk forces the bulk collectives (SpMSpVDistBulk and the bulk
	// gather/scatter of the fused kernels).
	CommBulk
)

func (c Comm) String() string {
	switch c {
	case CommFine:
		return "fine"
	case CommBulk:
		return "bulk"
	}
	return "auto"
}

// Dir is the traversal-direction choice of AxisDir.
type Dir uint8

const (
	// DirAuto defers the choice to the inspector (the zero value).
	DirAuto Dir = iota
	// DirPush forces top-down frontier expansion (masked SpMSpV).
	DirPush
	// DirPull forces bottom-up in-neighbor scanning.
	DirPull
)

func (d Dir) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	}
	return "auto"
}

// Place is the vector-placement choice of AxisPlace.
type Place uint8

const (
	// placeAuto defers the choice to the inspector (the zero value).
	placeAuto Place = iota
	// PlaceGather forces the row-team all-gather of the input vector.
	PlaceGather
	// PlaceReplicate forces a full replication of the input vector on every
	// locale.
	PlaceReplicate
)

func (p Place) String() string {
	switch p {
	case PlaceGather:
		return "gather"
	case PlaceReplicate:
		return "replicate"
	}
	return "auto"
}

// Interned reason strings: decisions record one of these, so the hot path
// never formats a string.
const (
	// ReasonForced: the strategy pinned this axis; no costs were compared.
	ReasonForced = "forced"
	// ReasonFaultPlan: a fault plan is armed, so the variant with the
	// established fault/retry semantics is kept regardless of cost.
	ReasonFaultPlan = "fault-plan"
	// ReasonSingleLocale: one locale — there is no remote traffic to shape.
	ReasonSingleLocale = "single-locale"
	// ReasonPullThreshold: the legacy nnz(frontier) > n/threshold rule chose.
	ReasonPullThreshold = "pull-threshold"
)

// Strategy fixes (or frees) each dispatch axis. The zero value is fully
// automatic. PullThreshold > 0 replays the legacy direction-optimizing rule
// (pull while nnz(frontier) > n/PullThreshold) instead of the cost model; it
// only applies while Dir is DirAuto.
type Strategy struct {
	Comm          Comm
	Dir           Dir
	Place         Place
	PullThreshold int
}

// Decision is one recorded dispatch: which kernel asked, on which axis, what
// was chosen and why, and the calibrated modeled costs of the chosen and the
// rejected variant (zero when the choice was forced).
type Decision struct {
	Op     string
	Axis   Axis
	Choice string
	Reason string
	Cost   float64
	Alt    float64
}

// ringSize bounds the decision log. Tests that want a full table read it
// before it wraps; 256 covers every algorithm round of the test workloads.
const ringSize = 256

// ewma is one calibration slot: the exponentially weighted observed/estimated
// cost ratio of a (axis, choice) pair.
type ewma struct {
	ratio float64
	seen  bool
}

// calibAlpha is the EWMA step; calibClamp bounds a single observation's
// ratio so one mispredicted round cannot swing the model by more than 4x.
const (
	calibAlpha = 0.25
	calibClamp = 4.0
)

// Inspector holds a strategy, the calibration state, and the decision ring.
// It is not safe for concurrent use — like a Context, an Inspector belongs to
// one serial stream of operations (clone the owning context to branch).
type Inspector struct {
	strat Strategy
	calib [numAxes][3]ewma
	ring  [ringSize]Decision
	n     int // total decisions ever recorded
}

// New returns an inspector implementing the given strategy.
func New(s Strategy) *Inspector { return &Inspector{strat: s} }

// Clone returns an independent copy: same strategy, same calibration state,
// same decision history, diverging from here on.
func (in *Inspector) Clone() *Inspector {
	if in == nil {
		return nil
	}
	cp := *in
	return &cp
}

// Strategy returns the strategy the inspector implements.
func (in *Inspector) Strategy() Strategy { return in.strat }

// record appends one decision to the ring.
func (in *Inspector) record(op string, axis Axis, choice, reason string, cost, alt float64) {
	in.ring[in.n%ringSize] = Decision{Op: op, Axis: axis, Choice: choice, Reason: reason, Cost: cost, Alt: alt}
	in.n++
}

// Note records a decision that was made outside the cost model (a forced
// variant, a fault-plan override, the legacy pull threshold).
func (in *Inspector) Note(op string, axis Axis, choice, reason string) {
	in.record(op, axis, choice, reason, 0, 0)
}

// scale returns the calibration multiplier of an (axis, choice) slot: 1 until
// the first Observe, the EWMA observed/estimated ratio after.
func (in *Inspector) scale(axis Axis, choice uint8) float64 {
	if e := in.calib[axis][choice%3]; e.seen {
		return e.ratio
	}
	return 1
}

// Observe feeds an observed cost back against the estimate that chose the
// variant, updating the calibration EWMA. Non-positive inputs are ignored.
func (in *Inspector) Observe(axis Axis, choice uint8, estimated, observed float64) {
	if in == nil || estimated <= 0 || observed <= 0 {
		return
	}
	r := observed / estimated
	if r > calibClamp {
		r = calibClamp
	} else if r < 1/calibClamp {
		r = 1 / calibClamp
	}
	e := &in.calib[axis][choice%3]
	if !e.seen {
		e.ratio, e.seen = r, true
		return
	}
	e.ratio += calibAlpha * (r - e.ratio)
}

// AbsorbCalibration folds another inspector's calibration state into this
// one, slot by slot: a slot this inspector has never observed adopts the
// other's ratio outright, and a slot both have observed blends the other's
// ratio in with the EWMA step — exactly as if the other inspector's last
// observation had been fed to this one. Long-lived contexts use it to keep
// learning across derived (cloned) contexts: each finished clone's inspector
// is absorbed back into the parent, so the next clone starts from the
// accumulated calibration instead of the parent's snapshot at derive time.
// Decision rings are not merged — history stays with the stream that made it.
func (in *Inspector) AbsorbCalibration(other *Inspector) {
	if in == nil || other == nil {
		return
	}
	for a := Axis(0); a < numAxes; a++ {
		for c := 0; c < 3; c++ {
			o := other.calib[a][c]
			if !o.seen {
				continue
			}
			e := &in.calib[a][c]
			if !e.seen {
				*e = o
				continue
			}
			e.ratio += calibAlpha * (o.ratio - e.ratio)
		}
	}
}

// Calibration reports the EWMA observed/estimated ratio of an (axis, choice)
// slot and whether it has ever been observed; tests use it to assert that
// learning persists across context derivations.
func (in *Inspector) Calibration(axis Axis, choice uint8) (ratio float64, seen bool) {
	if in == nil {
		return 0, false
	}
	e := in.calib[axis][choice%3]
	return e.ratio, e.seen
}

// DecideComm picks fine vs bulk for op from the calibrated costs. A forced
// strategy bypasses the comparison. reasonFine/reasonBulk name the signal the
// caller derived each cost from; the winning side's reason is recorded.
func (in *Inspector) DecideComm(op string, costFine, costBulk float64, reasonFine, reasonBulk string) Comm {
	switch in.strat.Comm {
	case CommFine:
		in.record(op, AxisComm, "fine", ReasonForced, 0, 0)
		return CommFine
	case CommBulk:
		in.record(op, AxisComm, "bulk", ReasonForced, 0, 0)
		return CommBulk
	}
	f := costFine * in.scale(AxisComm, uint8(CommFine))
	b := costBulk * in.scale(AxisComm, uint8(CommBulk))
	if f <= b {
		in.record(op, AxisComm, "fine", reasonFine, f, b)
		return CommFine
	}
	in.record(op, AxisComm, "bulk", reasonBulk, b, f)
	return CommBulk
}

// DecideDir picks push vs pull for op from the calibrated costs; see
// DecideComm. The legacy PullThreshold rule, when set, is applied by the
// executor before pricing (it calls Note with ReasonPullThreshold instead).
func (in *Inspector) DecideDir(op string, costPush, costPull float64, reasonPush, reasonPull string) Dir {
	switch in.strat.Dir {
	case DirPush:
		in.record(op, AxisDir, "push", ReasonForced, 0, 0)
		return DirPush
	case DirPull:
		in.record(op, AxisDir, "pull", ReasonForced, 0, 0)
		return DirPull
	}
	p := costPush * in.scale(AxisDir, uint8(DirPush))
	q := costPull * in.scale(AxisDir, uint8(DirPull))
	if p <= q {
		in.record(op, AxisDir, "push", reasonPush, p, q)
		return DirPush
	}
	in.record(op, AxisDir, "pull", reasonPull, q, p)
	return DirPull
}

// DecidePlace picks gather vs replicate for op from the calibrated costs; see
// DecideComm.
func (in *Inspector) DecidePlace(op string, costGather, costReplicate float64, reasonGather, reasonReplicate string) Place {
	switch in.strat.Place {
	case PlaceGather:
		in.record(op, AxisPlace, "gather", ReasonForced, 0, 0)
		return PlaceGather
	case PlaceReplicate:
		in.record(op, AxisPlace, "replicate", ReasonForced, 0, 0)
		return PlaceReplicate
	}
	g := costGather * in.scale(AxisPlace, uint8(PlaceGather))
	r := costReplicate * in.scale(AxisPlace, uint8(PlaceReplicate))
	if g <= r {
		in.record(op, AxisPlace, "gather", reasonGather, g, r)
		return PlaceGather
	}
	in.record(op, AxisPlace, "replicate", reasonReplicate, r, g)
	return PlaceReplicate
}

// Len returns how many decisions have been recorded in total (including any
// that have aged out of the ring).
func (in *Inspector) Len() int {
	if in == nil {
		return 0
	}
	return in.n
}

// Last returns the most recent decision (zero value if none).
func (in *Inspector) Last() Decision {
	if in == nil || in.n == 0 {
		return Decision{}
	}
	return in.ring[(in.n-1)%ringSize]
}

// Decisions returns a copy of the retained decision log, oldest first. At
// most ringSize entries are retained.
func (in *Inspector) Decisions() []Decision {
	if in == nil || in.n == 0 {
		return nil
	}
	k := in.n
	if k > ringSize {
		k = ringSize
	}
	out := make([]Decision, k)
	start := in.n - k
	for i := 0; i < k; i++ {
		out[i] = in.ring[(start+i)%ringSize]
	}
	return out
}

// Table renders the retained decision log as one "op axis=choice reason" line
// per decision — the golden-table format of the determinism tests. Costs are
// deliberately omitted: the table pins the strategy sequence, not the cost
// model's exact floats.
func (in *Inspector) Table() string {
	ds := in.Decisions()
	buf := make([]byte, 0, 32*len(ds))
	for _, d := range ds {
		buf = append(buf, d.Op...)
		buf = append(buf, ' ')
		buf = append(buf, d.Axis.String()...)
		buf = append(buf, '=')
		buf = append(buf, d.Choice...)
		buf = append(buf, ' ')
		buf = append(buf, d.Reason...)
		buf = append(buf, '\n')
	}
	return string(buf)
}
