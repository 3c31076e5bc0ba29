package gb

import (
	"errors"
	"testing"
)

func TestValidationTypedErrors(t *testing.T) {
	ctx, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	a := ErdosRenyi[int64](ctx, 50, 3, 1)
	rect, err := MatrixFromTriplets(ctx, 3, 5, []int{0}, []int{4}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	x := NewVector[int64](ctx, 50)
	short := NewVector[int64](ctx, 20)
	dense := NewDenseVector[int64](ctx, 20)

	dim := []struct {
		name string
		err  error
	}{
		{"EWiseAdd", func() error { _, e := EWiseAdd(x, short, func(a, b int64) int64 { return a + b }); return e }()},
		{"EWiseMultSparse", func() error { _, e := EWiseMultSparse(x, short, func(a, b int64) int64 { return a * b }); return e }()},
		{"EWiseMult", func() error { _, e := EWiseMult(x, dense, func(_, m int64) bool { return m != 0 }); return e }()},
		{"MxM", func() error { _, e := MxM(a, rect, PlusTimes[int64]()); return e }()},
		{"SpMV", func() error {
			_, e := SpMV(a, dense, PlusTimes[int64]())
			return e
		}()},
		{"SpMSpV", func() error { _, e := SpMSpV(a, short); return e }()},
		{"SpMSpVSemiring", func() error { _, e := SpMSpVSemiring(a, short, MinPlus[int64]()); return e }()},
		{"AssignIndexed", AssignIndexed(x, []int{1, 2}, short)},
		{"BFS on rectangular", func() error { _, e := BFS(ctx, rect, 0); return e }()},
	}
	for _, c := range dim {
		if !errors.Is(c.err, ErrDimensionMismatch) {
			t.Errorf("%s: err = %v, want ErrDimensionMismatch", c.name, c.err)
		}
	}

	oob := []struct {
		name string
		err  error
	}{
		{"BFS source", func() error { _, e := BFS(ctx, a, 50); return e }()},
		{"BFSMasked source", func() error { _, e := BFSMasked(ctx, a, -1); return e }()},
		{"SSSP source", func() error { _, _, e := SSSP(a, 99); return e }()},
		{"Extract", func() error { _, e := Extract(x, []int{0, 50}); return e }()},
		{"AssignIndexed index", func() error {
			src := NewVector[int64](ctx, 2)
			return AssignIndexed(x, []int{1, 50}, src)
		}()},
	}
	for _, c := range oob {
		if !errors.Is(c.err, ErrIndexOutOfRange) {
			t.Errorf("%s: err = %v, want ErrIndexOutOfRange", c.name, c.err)
		}
	}
}

func TestWithFaultPlanChaosSmoke(t *testing.T) {
	// The whole chaos path through the public API: a plan with drops, delays
	// and a crash must leave BFS results identical to fault-free and cost more
	// modeled time.
	clean, err := New(Locales(6), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BFS(clean, ErdosRenyi[int64](clean, 150, 5, 9), 0)
	if err != nil {
		t.Fatal(err)
	}

	chaotic, err := New(Locales(6), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	plan := StandardChaosPlan(3)
	plan.CrashLocale, plan.CrashStep = 4, 30
	chaotic = chaotic.WithFaultPlan(plan)
	got, err := BFS(chaotic, ErdosRenyi[int64](chaotic, 150, 5, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] {
			t.Fatalf("level[%d] = %d, want %d", v, got.Level[v], want.Level[v])
		}
	}
	if chaotic.Elapsed() <= clean.Elapsed() {
		t.Error("chaos run should be strictly slower")
	}
	st := chaotic.FaultStats()
	if st.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", st.Crashes)
	}
	if st.Steps == 0 {
		t.Error("fault plan never consulted")
	}
}

func TestFaultStatsZeroWithoutPlan(t *testing.T) {
	ctx, err := New(Locales(2), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	if st := ctx.FaultStats(); st != (FaultStats{}) {
		t.Errorf("fresh context fault stats = %+v, want zero", st)
	}
	if ctx.Retries() != 0 {
		t.Error("fresh context reports retries")
	}
}

func TestWithRetryPolicyExhaustion(t *testing.T) {
	ctx, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx = ctx.WithFaultPlan(FaultPlan{Seed: 5, DropProb: 1, CrashLocale: -1}).
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3})
	a := ErdosRenyi[float64](ctx, 60, 4, 13)
	_, _, err = SSSP(a, 0)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("SSSP err = %v, want ErrRetriesExhausted", err)
	}
	if ctx.Retries() == 0 {
		t.Error("retry counter should have advanced")
	}
}
