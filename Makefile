# Convenience targets; everything is plain `go` underneath.

GO ?= go
# go test that fails when a -run pattern matches no test in a listed package.
GOTEST_STRICT = GO="$(GO)" ./scripts/gotest_strict.sh

.PHONY: all build vet test test-short race bench bench-e2e bench-e2e-test fuzz-smoke chaos-matrix spgemm-accept serve-accept figures figures-check figures-paper ablations clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The whole module under the race detector: queries share resident block
# storage by design (DESIGN.md §15), so no package is exempt.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper figure at the reduced scale (fast).
figures:
	$(GO) run ./cmd/gbbench -figure all -scale small

# Every figure at the reduced scale against the committed results_small.csv.
# The modeled clock is deterministic (identical under any GOMAXPROCS), so any
# diff is a change in what the kernels charge or compute. After an intended
# change, regenerate the file with the same command redirected into it.
figures-check:
	$(GO) run ./cmd/gbbench -figure all -scale small -format csv -q | diff results_small.csv -

# Regenerate every paper figure at the paper's sizes (needs ~8 GB, ~1 h).
figures-paper:
	$(GO) run ./cmd/gbbench -figure all -scale paper

ablations:
	$(GO) run ./cmd/gbbench -figure ablgather,ablsort,ablatomic,ablgrid,ablengine,ablbulk -scale paper

# The two-clock end-to-end benchmark (benchmark/README.md): host wall-clock
# and CPU of the gb library and of gbserve over real HTTP, next to the modeled
# clock. Arguments pass through:
#   make bench-e2e ARGS="--workload lib-kernels --seed 3 --trace 1"
ARGS ?=
bench-e2e:
	bash benchmark/run.sh $(ARGS)

# The benchmark's own tests (it is a Go module of its own, so `go test ./...`
# here does not reach them): metric registry == BENCHMARK.json, percentile and
# schedule arithmetic, checker rejections, a 1-s smoke of every workload.
bench-e2e-test:
	$(GO) -C benchmark test .

# The CI fuzz smoke: 30s each on the bucket SPA, the scratch arena, the
# fault injector, the epoch delta merge, the fusion planner (random op
# programs, fused vs eager bitwise identity), the strategy dispatcher
# (random strategies, auto vs forced bitwise identity) and the inlined
# built-in-semiring row loops (vs the function-valued operators, bitwise);
# arbitrary bytes at gbserve's POST /query (typed replies only: never a
# panic, never a 5xx other than the typed 504); and arbitrary bytes at its
# POST /graphs/{name}/mutate (never a 5xx, and a refused batch stages nothing).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBucketSPA -fuzztime 30s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzScratchPool -fuzztime 30s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzSortInts -fuzztime 30s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzInjector -fuzztime 30s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzDeltaMerge -fuzztime 30s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzFusionPlan -fuzztime 30s ./gb
	$(GO) test -run '^$$' -fuzz FuzzStrategyDispatch -fuzztime 30s ./gb
	$(GO) test -run '^$$' -fuzz FuzzDCSC -fuzztime 30s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzSpGEMMLocal -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSpmvRowKinds -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzMutateRequest -fuzztime 30s ./internal/serve

# One cell of the CI chaos matrix locally: make chaos-matrix CHAOS_SEED=2 CHAOS_POLICY=failover
# Runs the round-driver column (BFS, masked BFS, SSSP, PageRank, CC) and the
# SpGEMM column (crash mid-SUMMA-broadcast), then writes the MTTR and
# streaming reports and diffs them against the goldens in testdata/chaos.
CHAOS_SEED ?= 1
CHAOS_POLICY ?= failover
CHAOS_CELL = $(CHAOS_SEED)_$(CHAOS_POLICY)
chaos-matrix:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_POLICY=$(CHAOS_POLICY) $(GOTEST_STRICT) -run 'TestChaosPolicyMatrix|TestChaosSpGEMMMatrix' -v ./internal/algorithms
	$(GO) run ./cmd/gbbench -figure none -chaos-seed $(CHAOS_SEED) -chaos-policy $(CHAOS_POLICY) -mttr-out mttr_$(CHAOS_CELL).json -stream-out stream_$(CHAOS_CELL).json
	diff testdata/chaos/mttr_$(CHAOS_CELL).json mttr_$(CHAOS_CELL).json
	diff testdata/chaos/stream_$(CHAOS_CELL).json stream_$(CHAOS_CELL).json

# The CI spgemm-accept job: bitwise identity of the SUMMA SpGEMM against the
# sequential reference on ER and R-MAT inputs over prime (1xp), square and
# oversubscribed one-node grids; the per-stage message-count pin (O(sqrt P)
# broadcasts, nnz-independent); the local heap/hash kernel cross-checks; and
# the SpGEMM-powered workloads against their shared-memory references.
spgemm-accept:
	$(GOTEST_STRICT) -run 'TestSpGEMMAccept|TestSUMMA|TestSpGEMMMasked|TestSpGEMMPlace|TestSpGEMMLocal|TestSpGEMMDist|TestDCSC' -v ./internal/core ./internal/sparse
	$(GOTEST_STRICT) -run 'TestTriangleCountDist|TestKTrussDist|TestMSBFS|TestChaosSpGEMM' -v ./internal/algorithms
	$(GOTEST_STRICT) -run 'TestMxM|TestKTrussAndMultiSourceBFSSurface|TestSUMMASpanTreeGolden' -v ./gb

# The CI serve-accept job: the gbserve query-service acceptance suite —
# typed cancellation/deadline propagation, per-tenant admission control and
# shedding under saturation, BFS batch coalescing, chaos queries that recover
# bitwise-identically (or are flagged best-effort), epoch advance under
# mutate/flush (a refused batch stages nothing), the reply cache (hits that
# do no graph work, epoch turnover, the byte cap), SSSP warm starts (the state
# store, its cap, the delete/raise rule in the library and in the service),
# bounded request bodies, lock-free readiness, concurrent snapshot readers
# racing recovery, and an end-to-end boot -> concurrent-query -> SIGTERM-drain
# smoke of the binary.
serve-accept:
	$(GOTEST_STRICT) -run 'TestQueryEndpoints|TestChaosQueries|TestDeadlineAndTimeout|TestAdmissionShedding|TestTenantRateLimit|TestBFSBatcher|TestMutateFlush|TestDrain|TestCanceledClient|TestReplyCache|TestOversizeBody|TestReadyz|TestSSSPState' -v ./internal/serve
	$(GOTEST_STRICT) -run 'TestBuildGraphSpecs|TestParsePolicy' -v ./cmd/gbserve
	$(GOTEST_STRICT) -run 'TestWithCancelContextTyped|TestModeledDeadlineTyped|TestCancelMidRunWithinOneRound|TestAbsorbCalibrationPersists|TestIncrementalSSSP' -v ./gb
	$(GOTEST_STRICT) -run 'TestRetryBudgetCappedByDeadline|TestCancelHookStopsCollectives' -v ./internal/comm
	$(GOTEST_STRICT) -run 'TestEpochChaosConcurrentReaders|TestIncrementalSSSP' -v ./internal/algorithms
	./scripts/serve_accept.sh

clean:
	$(GO) clean ./...
