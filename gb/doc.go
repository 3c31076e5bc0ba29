// Package gb is the public face of the GraphBLAS library: a Chapel-paper
// reproduction of distributed sparse linear algebra for graph computation.
//
// The library mirrors "Towards a GraphBLAS Library in Chapel" (Azad & Buluç,
// IPDPSW 2017): sparse matrices in CSR form, sparse vectors with sorted index
// lists, 2-D block distribution over a grid of locales, and the GraphBLAS
// operations Apply, Assign, eWiseMult and SpMSpV — each in the paper's
// "idiomatic" and "hand-optimized SPMD" variants — plus the primitives needed
// for complete algorithms (reduce, extract, SpMV, SpGEMM, masks, semirings).
//
// A Context fixes the simulated machine configuration (locale count, threads
// per locale, node placement). All operations execute for real on real data;
// the Context's simulator additionally models what the execution would cost
// on the configured machine, which is how the repository regenerates the
// paper's figures on a laptop. Use Context.Elapsed to read the modeled time.
//
// Quick start:
//
//	ctx, _ := gb.New(gb.Locales(4), gb.Threads(24)) // 4 locales x 24 threads
//	a := gb.ErdosRenyi[int64](ctx, 100000, 8, 1)    // G(n, d/n) random graph
//	res, _ := gb.BFS(ctx, a, 0)                     // GraphBLAS-composed BFS
//	fmt.Println(res.Rounds, ctx.Elapsed())          // rounds, modeled seconds
//
// # Configuration
//
// New takes functional options; the defaults are one locale, one thread and
// the bucket SpMSpV engine. Engines (gb.MergeSort, gb.RadixSort, gb.Bucket),
// fault plans and retry policies are options themselves:
//
//	tr := &gb.Trace{}
//	ctx, _ := gb.New(gb.Locales(16), gb.Threads(24), gb.MergeSort,
//	    gb.StandardChaosPlan(7), gb.RetryPolicy{MaxAttempts: 5},
//	    gb.Tracer(tr))
//
// # Tracing
//
// A Context carrying a tracer (the Tracer option, or WithTracer) reports one
// span per operation — kernels, collectives and whole algorithms — with the
// phase breakdown, per-locale message/byte/retry counters and engine tags.
// Export the collected spans with trace.WriteJSON or trace.WritePrometheus,
// or read them programmatically (ctx.Tracer().Roots()). Tracing observes the
// simulator without charging it: modeled times are bitwise identical with
// and without a tracer.
//
// # Nonblocking execution and deferred handles
//
// Contexts run in the GraphBLAS nonblocking mode by default (FusionMode
// Fused): the deferrable operations — Apply, EWiseMult, Assign, SpMSpV,
// SpMSpVMasked, SpMV — enqueue on the context instead of executing, and the
// pending batch materializes when a result can be observed: any vector read
// (NNZ, Get, Entries, dense Set), Reduce, any algorithm call, any
// non-deferrable operation, a context derivation, Elapsed/Messages, or an
// explicit Wait (the GrB_wait equivalent, and the only drain that reports
// the batch's first error). At materialization, recognized chains run as
// single fused kernels (apply∘ewisemult, spmspv.masked+assign,
// spmspv+frontier) that skip intermediates and plan their collectives once.
// Results are bitwise identical to eager execution. gb.New(gb.Eager) or
// ctx.WithFusion(gb.Eager) restores one-kernel-per-call execution, and a
// context carrying a fault plan always executes eagerly so injected faults
// surface at the faulting call.
//
// The invalidation rules for deferred handles:
//
//   - A vector returned by a deferred operation is a promise: empty until
//     the queue drains, filled by the first read of anything on the context
//     (drains are batch-granular, not per-handle).
//   - An intermediate consumed by a fused region is never materialized; its
//     handle reads back empty after the batch has drained. A read that
//     itself triggers the drain keeps its target live — the planner then
//     refuses the fusion and materializes it — so a read never returns a
//     stale or partial value, only a post-drain read of a fused-away
//     intermediate sees empty. Observe only the results you need; drop
//     intermediate handles for the fused fast path.
//   - Operands created on another context force that context's pending ops
//     first, so cross-context reads never see unmaterialized state.
//   - Algorithm results and reductions are always materialized values;
//     deferred handles never escape the vector types.
//
// # Communication strategy
//
// Distributed kernels dispatch among communication variants per operation —
// fine-grained element traffic vs bulk collectives, push vs pull traversal,
// row-team gather vs full vector replication — through an inspector–executor
// layer that prices each variant from the op's sampled access pattern and
// calibrates its model against observed costs. All variants produce bitwise
// identical results; only the modeled cost differs. The default (gb.Auto)
// selects every axis automatically; a Strategy assembled from
// StrategyOptions pins axes:
//
//	ctx, _ := gb.New(gb.Locales(16), gb.WithStrategy(gb.ForceBulk))
//	pinned, _ := ctx.WithStrategy(gb.ForcePull, gb.PinEngine(gb.MergeSort))
//	auto, _ := ctx.WithStrategy(gb.Auto)  // clear every pin
//
// The strategy aliasing rules:
//
//   - ctx.WithStrategy derives a context with a fresh inspector: empty
//     calibration and decision history, so the derived lineage prices its
//     own workload from scratch. The receiver keeps its strategy, model and
//     history unmodified.
//   - Implicit derivations (other With* methods, Transpose) carry a clone of
//     the inspector — same strategy and calibration, diverging history — so
//     they keep the learned cost model.
//   - An armed fault plan overrides cost-driven comm dispatch: the variant
//     with established retry semantics is kept (decisions record
//     reason=fault-plan).
//   - ctx.StrategyTable() renders the retained dispatch decisions ("op
//     axis=choice reason" per line); ctx.Strategy() reads the installed
//     strategy back. With a tracer attached, each decision also reports a
//     punctual Dispatch span tagged op=, strategy= and reason=.
//
// BFSDirectionOptimizing's alpha parameter folds into this layer: alpha > 0
// replays the legacy threshold rule (gb.PullThreshold is the per-context
// equivalent), alpha <= 0 defers each round's direction to the inspector.
// Its push rounds are BFS's, on the context's engine and comm axis.
//
// # Deriving contexts and aliasing
//
// The chainable With* methods (WithFaultPlan, WithRetryPolicy, WithTracer)
// return a new derived context and leave the receiver untouched:
//
//	chaotic := ctx.WithFaultPlan(gb.StandardChaosPlan(3))
//	// ctx still runs fault-free; chaotic draws from the plan.
//
// The aliasing rules for a derived context are:
//
//   - The modeled clock and traffic counters are copied at derivation time
//     and advance independently afterwards.
//   - The locale grid and data layout are shared, so matrices and vectors
//     created on the parent are usable from the derivation (their blocks are
//     not copied — element mutations are visible through both).
//   - Operations on a value route their modeled costs to the context the
//     value was created on, so create operands after deriving the context
//     whose clock should observe them.
//   - A tracer installed on the parent is shared with the derivation and is
//     rebound to the derivation's simulator: after deriving, spans report
//     the derivation's costs. Give each lineage its own tracer when both
//     stay in use.
package gb
