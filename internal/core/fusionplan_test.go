package core

import (
	"testing"
)

// Planner unit tests: PlanFusion must tile exactly the chains the fused
// kernels implement, respect deadness of intermediates, and never overlap
// regions. Operand ids are arbitrary nonzero int32s; 0 means absent.

func regionsEqual(got, want []Region) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestPlanFusionRecipes(t *testing.T) {
	cases := []struct {
		name string
		ops  []OpDesc
		want []Region
	}{
		{
			name: "empty",
			ops:  nil,
			want: []Region{},
		},
		{
			name: "single op stays unfused",
			ops: []OpDesc{
				{Op: OpSpMSpV, In0: 1, Out: 2},
			},
			want: []Region{{RecipeNone, 0, 1}},
		},
		{
			name: "apply then ewisemult fuses",
			ops: []OpDesc{
				{Op: OpApply, In0: 1, Out: 1},
				{Op: OpEWiseMult, In0: 1, In1: 2, Out: 3},
			},
			want: []Region{{RecipeApplyEWiseMult, 0, 2}},
		},
		{
			name: "apply then ewisemult on a different vector does not fuse",
			ops: []OpDesc{
				{Op: OpApply, In0: 1, Out: 1},
				{Op: OpEWiseMult, In0: 4, In1: 2, Out: 3},
			},
			want: []Region{{RecipeNone, 0, 1}, {RecipeNone, 1, 2}},
		},
		{
			name: "bfs round chain fuses to frontier recipe",
			ops: []OpDesc{
				{Op: OpSpMSpV, In0: 1, Out: 2},
				{Op: OpEWiseMult, In0: 2, In1: 3, Out: 4},
				{Op: OpAssign, In0: 4, Out: 1},
			},
			want: []Region{{RecipeSpMSpVFrontier, 0, 3}},
		},
		{
			name: "frontier chain with live intermediate stays unfused",
			ops: []OpDesc{
				{Op: OpSpMSpV, In0: 1, Out: 2},
				{Op: OpEWiseMult, In0: 2, In1: 3, Out: 4},
				{Op: OpAssign, In0: 4, Out: 1},
				{Op: OpReduce, In0: 2}, // y read later: must be materialized
			},
			want: []Region{
				{RecipeNone, 0, 1}, {RecipeNone, 1, 2},
				{RecipeNone, 2, 3}, {RecipeNone, 3, 4},
			},
		},
		{
			name: "masked spmspv then assign fuses",
			ops: []OpDesc{
				{Op: OpSpMSpVMasked, In0: 1, In1: 2, Out: 3},
				{Op: OpAssign, In0: 3, Out: 1},
			},
			want: []Region{{RecipeSpMSpVMaskedAssign, 0, 2}},
		},
		{
			name: "masked spmspv with live product stays unfused",
			ops: []OpDesc{
				{Op: OpSpMSpVMasked, In0: 1, In1: 2, Out: 3},
				{Op: OpAssign, In0: 3, Out: 1},
				{Op: OpApply, In0: 3, Out: 3},
			},
			want: []Region{
				{RecipeNone, 0, 1}, {RecipeNone, 1, 2}, {RecipeNone, 2, 3},
			},
		},
		{
			name: "regions tile greedily around unmatched ops",
			ops: []OpDesc{
				{Op: OpReduce, In0: 9},
				{Op: OpApply, In0: 1, Out: 1},
				{Op: OpEWiseMult, In0: 1, In1: 2, Out: 3},
				{Op: OpSpMSpVMasked, In0: 3, In1: 2, Out: 5},
				{Op: OpAssign, In0: 5, Out: 3},
				{Op: OpSpMV, In0: 3, Out: 6},
			},
			want: []Region{
				{RecipeNone, 0, 1},
				{RecipeApplyEWiseMult, 1, 3},
				{RecipeSpMSpVMaskedAssign, 3, 5},
				{RecipeNone, 5, 6},
			},
		},
		{
			name: "zero operand id never matches",
			ops: []OpDesc{
				{Op: OpApply, In0: 0, Out: 0},
				{Op: OpEWiseMult, In0: 0, In1: 2, Out: 3},
			},
			want: []Region{{RecipeNone, 0, 1}, {RecipeNone, 1, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := PlanFusion(tc.ops, nil)
			if !regionsEqual(got, tc.want) {
				t.Fatalf("PlanFusion = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestPlanFusionRegionsCover checks the tiling invariant on a longer program:
// regions are contiguous, non-overlapping, and cover every op exactly once.
func TestPlanFusionRegionsCover(t *testing.T) {
	ops := []OpDesc{
		{Op: OpSpMSpV, In0: 1, Out: 2},
		{Op: OpEWiseMult, In0: 2, In1: 3, Out: 4},
		{Op: OpAssign, In0: 4, Out: 1},
		{Op: OpApply, In0: 1, Out: 1},
		{Op: OpEWiseMult, In0: 1, In1: 3, Out: 5},
		{Op: OpReduce, In0: 5},
	}
	regions := PlanFusion(ops, nil)
	at := 0
	for _, r := range regions {
		if r.Lo != at || r.Hi <= r.Lo || r.Hi > len(ops) {
			t.Fatalf("region %+v breaks tiling at op %d", r, at)
		}
		at = r.Hi
	}
	if at != len(ops) {
		t.Fatalf("regions cover ops[0:%d), want [0:%d)", at, len(ops))
	}
}

// TestPlanFusionZeroAlloc pins the planner's steady-state allocation count:
// with a warm regions buffer the pass allocates nothing, so the op queue can
// run it on every materialization without heap traffic.
func TestPlanFusionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	ops := []OpDesc{
		{Op: OpSpMSpV, In0: 1, Out: 2},
		{Op: OpEWiseMult, In0: 2, In1: 3, Out: 4},
		{Op: OpAssign, In0: 4, Out: 1},
		{Op: OpApply, In0: 1, Out: 1},
		{Op: OpEWiseMult, In0: 1, In1: 3, Out: 5},
		{Op: OpSpMSpVMasked, In0: 5, In1: 3, Out: 6},
		{Op: OpAssign, In0: 6, Out: 5},
	}
	// The whole program, and its first five ops alone.
	for _, prog := range [][]OpDesc{ops, ops[:5]} {
		regions := make([]Region, 0, 8)
		avg := testing.AllocsPerRun(100, func() {
			regions = PlanFusion(prog, regions)
		})
		if avg != 0 {
			t.Errorf("%d ops: PlanFusion allocates %.1f objects per warm call, want 0", len(prog), avg)
		}
	}
}
