package core

// The executor half of the inspector–executor layer (the inspector lives in
// internal/inspect): before a distributed kernel runs, the functions here
// sample the op's access pattern — frontier density, per-locale nnz, expected
// products, team sizes — price each communication variant with the prices
// internal/comm charges its collectives with (and the simulator's
// non-mutating estimators for the kernels), and let the runtime's inspector
// pick the cheaper side. A nil
// inspector short-circuits every dispatch to the historical hardcoded
// variant, so raw runtimes and existing benchmarks are byte-for-byte
// unchanged.

import (
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reason strings the executors hand the inspector: the signal each modeled
// cost was derived from, recorded on the winning side's decision and emitted
// as the dispatch span's reason= tag.
const (
	// ReasonSparseFrontier: the frontier is sparse enough that per-element
	// fine-grained traffic undercuts the bulk collectives' fixed latencies.
	ReasonSparseFrontier = "sparse-frontier"
	// ReasonDenseFrontier: enough elements move that the bulk payloads
	// amortize their per-pair latency below the per-element cost.
	ReasonDenseFrontier = "dense-frontier"
	// ReasonTeamGather: the row-team all-gather moves only each team's band
	// over a team-depth tree.
	ReasonTeamGather = "row-team-gather"
	// ReasonFrontierEdges: the frontier's out-edges are few enough that
	// pushing them beats scanning the unvisited side.
	ReasonFrontierEdges = "frontier-edges"
	// ReasonUnvisitedScan: the frontier is dense enough that bottom-up
	// in-neighbor scans terminate early and undercut the push machinery.
	ReasonUnvisitedScan = "unvisited-scan"
)

// SpMSpVCommCosts prices the communication phases of one distributed SpMSpV
// under both plans, through the prices internal/comm charges with. The local
// multiply is identical either way and is excluded. The gather halves are
// exact — per-locale frontier counts are known before the run — while the
// scatter halves rest on a products estimate, whose realized value is fed
// back through observe.
type SpMSpVCommCosts struct {
	// Fine prices the fine plan's per-element exchange; Bulk prices the bulk
	// plan's sparse collectives.
	Fine, Bulk               float64
	fineGather, bulkGather   float64
	fineScatter, bulkScatter float64
	products                 float64
}

// EstimateSpMSpVComm samples x's per-locale frontier and prices the fine and
// bulk communication plans of y = A·x. It allocates nothing.
func EstimateSpMSpVComm[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T]) SpMSpVCommCosts {
	g := rt.G
	var e SpMSpVCommCosts
	count := func(l int) int { return x.Loc[l].NNZ() }
	nnzX := 0
	for l := 0; l < g.P; l++ {
		nnzX += count(l)
		if o, ok := fineGatherOpts(rt, x, l); ok {
			e.fineGather = max(e.fineGather, rt.S.FineGrainedTime(o))
		}
		e.bulkGather = max(e.bulkGather, comm.SparseRowAllGatherTime(rt, count, l))
	}

	// Products: expected output entries across all locales, before the
	// owner-side merge — the volume both scatters move. Capped at every
	// block emitting its full row band.
	prod := float64(nnzX) * float64(a.NNZ()) / float64(max(a.NCols, 1))
	if hi := float64(a.NRows) * float64(g.Pc); prod > hi {
		prod = hi
	}
	e.products = prod
	perLoc := prod / float64(g.P)

	var fineScatter float64
	if g.P > 1 && perLoc > 0 {
		msgs := int64(perLoc * float64(g.P-1) / float64(g.P))
		if msgs > 0 {
			fineScatter = rt.S.FineGrainedTime(rt.FineLatencyOpts(0, pickRemote(0, g.P), msgs, bytesPerEntry, g.P))
		}
	}
	// The fine path ends with every locale scanning its bounds slice back to
	// sparse form; the bulk path assembles the result from the merged runs.
	width := int64((a.NRows + g.P - 1) / g.P)
	fineScatter += rt.S.ComputeTime(rt.Threads, sim.Kernel{Name: "spmspv-densetosparse", Items: width, CPUPerItem: costScanCPU, BytesPerItem: 1})

	var bulkScatter float64
	if prod > 0 && g.Pc > 1 {
		// Each block's output lands on its own grid row's Pc owners: every
		// destination receives from its Pc-1 row neighbours.
		pairs := g.Pc - 1
		recvRemote := perLoc * float64(pairs) / float64(g.Pc)
		intra := g.SameNode(0, g.P-1)
		bulkScatter = float64(pairs)*comm.SparseMsgTime(rt, int(recvRemote)/pairs, intra) +
			comm.SparseMergeTime(rt, int(recvRemote))
	}

	e.fineScatter, e.bulkScatter = fineScatter, bulkScatter
	e.Fine = e.fineGather + fineScatter
	e.Bulk = e.bulkGather + bulkScatter
	return e
}

// observe feeds the realized scatter volume back into the inspector's
// calibration. The gather half of the estimate is exact, so the whole
// observed/estimated gap is attributed to the scatter's product prediction:
// the scatter component is re-priced linearly by the realized ratio.
func (e SpMSpVCommCosts) observe(in *inspect.Inspector, choice inspect.Comm, st DistStats) {
	if e.products <= 0 || st.ScatteredMsgs <= 0 {
		return
	}
	r := float64(st.ScatteredMsgs) / e.products
	switch choice {
	case inspect.CommFine:
		in.Observe(inspect.AxisComm, uint8(choice), e.Fine, e.Fine-e.fineScatter+e.fineScatter*r)
	case inspect.CommBulk:
		in.Observe(inspect.AxisComm, uint8(choice), e.Bulk, e.Bulk-e.bulkScatter+e.bulkScatter*r)
	}
}

// dispatchSpan opens the strategy-tagged span recording the inspector's most
// recent decision. The dispatched kernel's own span becomes its child, so a
// trace shows Dispatch[op= strategy= reason=] → kernel.
func dispatchSpan(rt *locale.Runtime, in *inspect.Inspector) *trace.Span {
	d := in.Last()
	return rt.Span("Dispatch", trace.T("op", d.Op), trace.T("strategy", d.Choice), trace.T("reason", d.Reason))
}

// spmspvCommChoice consults the runtime's inspector for the gather/scatter
// shape of one distributed SpMSpV, recording the decision under op. A nil
// inspector keeps the fine-grained exchange, preserving every pre-inspector
// trace and modeled time; so does an armed fault plan (whose per-element
// retry accounting lives on the fine path) and a single locale. The returned
// span (nil without an inspector) is the strategy-tagged dispatch record,
// which the caller ends once the kernel has run; End is nil-safe.
func spmspvCommChoice[T semiring.Number](rt *locale.Runtime, op string, a *dist.Mat[T], x *dist.SpVec[T]) (inspect.Comm, SpMSpVCommCosts, *trace.Span) {
	in := rt.Insp
	if in == nil {
		return inspect.CommFine, SpMSpVCommCosts{}, nil
	}
	if rt.Fault != nil {
		in.Note(op, inspect.AxisComm, "fine", inspect.ReasonFaultPlan)
		return inspect.CommFine, SpMSpVCommCosts{}, dispatchSpan(rt, in)
	}
	if rt.G.P == 1 {
		in.Note(op, inspect.AxisComm, "fine", inspect.ReasonSingleLocale)
		return inspect.CommFine, SpMSpVCommCosts{}, dispatchSpan(rt, in)
	}
	e := EstimateSpMSpVComm(rt, a, x)
	choice := in.DecideComm(op, e.Fine, e.Bulk, ReasonSparseFrontier, ReasonDenseFrontier)
	return choice, e, dispatchSpan(rt, in)
}

// SpMSpVDistAuto runs one distributed SpMSpV, dispatching between the
// fine-grained element exchange (SpMSpVDist) and the bulk collectives
// (SpMSpVDistBulk) through the runtime's inspector. A nil inspector keeps the
// historical fine-grained kernel unconditionally. Both plans produce
// bitwise-identical results (the bulk owner-merge replays the fine path's
// locale-order first-wins rule), so the choice is purely one of modeled cost.
// The bulk plan's collectives check for a cancel; their error is returned.
func SpMSpVDistAuto[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], x *dist.SpVec[T]) (*dist.SpVec[int64], DistStats, error) {
	choice, e, dsp := spmspvCommChoice(rt, "SpMSpV", a, x)
	defer dsp.End()
	if choice == inspect.CommFine {
		y, st := SpMSpVDist(rt, a, x)
		e.observe(rt.Insp, choice, st)
		return y, st, nil
	}
	y, st, err := SpMSpVDistBulk(rt, a, x)
	if err != nil {
		return nil, st, err
	}
	e.observe(rt.Insp, choice, st)
	return y, st, nil
}

// gatherSpMVInput gives every locale the x segment of its grid row: each row
// team all-gathers its members' parts (comm.RowAllGather). The vector's block
// bounds align with the matrix row bands (BlockBounds(n, P) at index r·Pc
// equals BlockBounds(n, Pr) at r), so a team's parts concatenate to its band.
// The bands are arena loans, returned with comm.ReleaseRowGather.
//
// The gather is SpMV's one placement: replicating x to every locale moves
// all n entries over a ⌈log2 P⌉-deep tree where a team moves n/Pr over a
// ⌈log2 Pc⌉-deep one, so it never prices below the gather. An inspector
// records the placement on its place axis with the signal it rests on.
func gatherSpMVInput[T semiring.Number](rt *locale.Runtime, x *dist.DenseVec[T], op string) ([][]T, error) {
	if in := rt.Insp; in != nil {
		reason := ReasonTeamGather
		switch {
		case rt.Fault != nil:
			reason = inspect.ReasonFaultPlan
		case rt.G.P == 1:
			reason = inspect.ReasonSingleLocale
		}
		in.Note(op, inspect.AxisPlace, "gather", reason)
		defer dispatchSpan(rt, in).End()
	}
	return comm.RowAllGather(rt, x.Loc)
}

// EstimateBFSDir prices one direction-optimized BFS round on rt's grid, per
// locale. Push runs the masked SpMSpV: every edge out of the frontier pays
// the per-entry SPA/bucket machinery plus per-row setup and an output pass.
// Pull gathers the frontier ids along the row teams, scans each unvisited
// column of its block until it meets a frontier member — about n/nnz(frontier)
// probes, at most the block's share of the frontier's average degree — and
// reduces the hits down the column teams. Both sides are priced on the
// kernels the round charges, at the runtime's thread count, and pull's two
// collectives at comm's prices. Both directions broadcast the visited mask
// down the column teams at the same price, so neither side counts it.
func EstimateBFSDir(rt *locale.Runtime, n, unvisited, frontierNNZ, frontierEdges int) (push, pull float64) {
	g, s, th := rt.G, rt.S, rt.Threads
	per := func(items, parts int) int64 { return int64(float64(items) / float64(parts)) }
	push = s.ComputeTime(th, sim.Kernel{Items: per(frontierEdges, g.P), CPUPerItem: costSpaCPU, BytesPerItem: costSpaBytes}) +
		s.ComputeTime(th, sim.Kernel{Items: per(frontierNNZ, g.Pr), CPUPerItem: costSpaPerRow}) +
		s.ComputeTime(th, sim.Kernel{Items: per(frontierEdges, g.P), CPUPerItem: costOutputCPU, BytesPerItem: costOutputBytes})
	if frontierNNZ == 0 {
		return push, 0
	}
	probes := min(float64(n)/float64(frontierNNZ), float64(frontierEdges)/float64(frontierNNZ)/float64(g.Pr))
	checked := per(unvisited, g.Pc)
	gather, reduce := pullCommTime(rt, n)
	pull = s.ComputeTime(th, sim.Kernel{Items: checked, CPUPerItem: costPullCheckCPU, BytesPerItem: 1}) +
		s.ComputeTime(th, sim.Kernel{Items: int64(float64(checked) * probes), CPUPerItem: costPullScanCPU, BytesPerItem: costPullScanBytes}) +
		gather + reduce
	return push, pull
}

// pullCommTime prices a pull round's two collectives on the mean band: the
// row teams' all-gather of n/Pr frontier ids and the column teams' reduce of
// n/Pc hits. Bands differ by at most one element, so this is every team's
// charge when Pr and Pc divide n, and below it otherwise.
func pullCommTime(rt *locale.Runtime, n int) (gather, reduce float64) {
	g := rt.G
	return comm.RowAllGatherTime(rt, int(float64(n)/float64(g.Pr))), comm.ColReduceTime(rt, int(float64(n)/float64(g.Pc)))
}
