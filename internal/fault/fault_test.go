package fault

import (
	"errors"
	"testing"
)

func TestPlanEnabled(t *testing.T) {
	if (Plan{CrashLocale: -1}).Enabled() {
		t.Error("crash-free zero-probability plan should be disabled")
	}
	if (Plan{}).Enabled() {
		// CrashLocale 0 means "crash locale 0"; the zero value is only truly
		// inert because CrashStep 0 with probabilities 0... document reality:
		t.Log("zero plan counts as enabled via CrashLocale=0")
	}
	if !StandardChaos(1).Enabled() {
		t.Error("standard chaos plan should be enabled")
	}
	if !(Plan{CrashLocale: 2, CrashStep: 10}).Enabled() {
		t.Error("crash-only plan should be enabled")
	}
}

func TestDeterministicSequence(t *testing.T) {
	plan := StandardChaos(42)
	a := NewInjector(plan, 8)
	b := NewInjector(plan, 8)
	for i := 0; i < 5000; i++ {
		va, ea := a.Attempt(i%8, (i+3)%8)
		vb, eb := b.Attempt(i%8, (i+3)%8)
		if va != vb || (ea == nil) != (eb == nil) {
			t.Fatalf("step %d: sequences diverge: %+v vs %+v", i, va, vb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
	// A different seed must produce a different sequence.
	c := NewInjector(StandardChaos(43), 8)
	d := NewInjector(plan, 8)
	diverged := false
	for i := 0; i < 2000; i++ {
		vc, _ := c.Attempt(i%8, (i+3)%8)
		vd, _ := d.Attempt(i%8, (i+3)%8)
		if vc != vd {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestProbabilitiesRoughlyHonored(t *testing.T) {
	plan := Plan{Seed: 7, DropProb: 0.5, DelayProb: 0.25, DelayNS: 10, StallProb: 0.1, StallNS: 100, CrashLocale: -1}
	in := NewInjector(plan, 4)
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := in.Attempt(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := in.Stats()
	check := func(name string, got int64, p float64) {
		t.Helper()
		lo, hi := int64(float64(n)*p*0.85), int64(float64(n)*p*1.15)
		if got < lo || got > hi {
			t.Errorf("%s count %d outside [%d, %d] for prob %.2f over %d steps", name, got, lo, hi, p, n)
		}
	}
	check("drops", st.Drops, plan.DropProb)
	check("delays", st.Delays, plan.DelayProb)
	check("stalls", st.Stalls, plan.StallProb)
	if st.Steps != n {
		t.Errorf("steps = %d, want %d", st.Steps, n)
	}
}

func TestCrashAtStep(t *testing.T) {
	plan := Plan{Seed: 1, CrashLocale: 2, CrashStep: 10}
	in := NewInjector(plan, 4)
	for i := 0; i < 10; i++ {
		if _, err := in.Attempt(2, 3); err != nil {
			t.Fatalf("step %d: premature failure: %v", i, err)
		}
	}
	if in.AnyDown() != -1 {
		t.Fatal("no locale should be down before the crash step")
	}
	// Step 10 fires the crash; the same attempt observes it.
	_, err := in.Attempt(2, 3)
	if !errors.Is(err, ErrLocaleLost) {
		t.Fatalf("crash step error = %v, want ErrLocaleLost", err)
	}
	var ll *LocaleLostError
	if !errors.As(err, &ll) || ll.Locale != 2 {
		t.Fatalf("error should identify locale 2, got %v", err)
	}
	if !in.Down(2) || in.AnyDown() != 2 {
		t.Error("locale 2 should be marked down")
	}
	// Transfers not touching the dead locale still succeed.
	if _, err := in.Attempt(0, 1); err != nil {
		t.Errorf("healthy pair failed: %v", err)
	}
	if got := in.Stats().Crashes; got != 1 {
		t.Errorf("crashes = %d, want 1", got)
	}
}

func TestRebaseConsumesCrash(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, CrashLocale: 1, CrashStep: 0}, 4)
	if _, err := in.Attempt(0, 1); !errors.Is(err, ErrLocaleLost) {
		t.Fatal("crash at step 0 should fire immediately")
	}
	in.Rebase(3)
	if in.AnyDown() != -1 {
		t.Error("rebase should clear down flags")
	}
	for i := 0; i < 100; i++ {
		if _, err := in.Attempt(i%3, (i+1)%3); err != nil {
			t.Fatalf("crash must not re-fire after rebase: %v", err)
		}
	}
	if got := in.Stats().Crashes; got != 1 {
		t.Errorf("crashes = %d, want exactly 1", got)
	}
}

func TestCrashOutsideGridNeverFires(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, CrashLocale: 9, CrashStep: 0}, 4)
	for i := 0; i < 50; i++ {
		if _, err := in.Attempt(0, 1); err != nil {
			t.Fatalf("out-of-grid crash fired: %v", err)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if v, err := in.Attempt(0, 1); err != nil || v != (Verdict{}) {
		t.Error("nil injector should succeed cleanly")
	}
	if in.PerturbTransfer(0, 100) != 0 {
		t.Error("nil injector should not perturb")
	}
	if in.Down(0) || in.AnyDown() != -1 || in.Step() != 0 {
		t.Error("nil injector should report nothing down")
	}
	in.Rebase(2) // must not panic
	if in.Stats() != (Stats{}) {
		t.Error("nil injector stats should be zero")
	}
}

func TestPerturbTransferStepsSequence(t *testing.T) {
	plan := Plan{Seed: 5, DelayProb: 1, DelayNS: 111, CrashLocale: 1, CrashStep: 3}
	in := NewInjector(plan, 4)
	for i := 0; i < 3; i++ {
		if got := in.PerturbTransfer(0, 64); got != 111 {
			t.Fatalf("perturb = %v, want 111", got)
		}
	}
	// The 4th transfer step fires the crash even though it came through the
	// transparent hook path.
	in.PerturbTransfer(0, 64)
	if in.AnyDown() != 1 {
		t.Error("crash should fire on hook-path steps too")
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	def := DefaultRetryPolicy()
	if got := (RetryPolicy{}).WithDefaults(); got != def {
		t.Errorf("zero policy should fill to defaults, got %+v", got)
	}
	custom := RetryPolicy{MaxAttempts: 2}.WithDefaults()
	if custom.MaxAttempts != 2 || custom.TimeoutNS != def.TimeoutNS {
		t.Errorf("partial policy should keep set fields and default the rest: %+v", custom)
	}
}

func TestRetryErrorMatching(t *testing.T) {
	err := error(&RetryError{Op: "broadcast", Src: 0, Dst: 3, Attempts: 6})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Error("RetryError should match ErrRetriesExhausted")
	}
	if errors.Is(err, ErrLocaleLost) {
		t.Error("RetryError must not match ErrLocaleLost")
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 6 {
		t.Error("errors.As should recover the RetryError")
	}
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.DropProb > 0 || p.DelayProb > 0 || p.StallProb > 0 || p.CrashLocale >= 0 ||
		p.MergeCrashEpoch > 0
}
