# twsearch developer targets. Everything here is plain Go tooling; the
# Makefile only names the common invocations.

GO ?= go

.PHONY: all build vet lint lint-self lint-golden lint-golden-update test race race-concurrency race-shard race-mmap race-build cover bench profile-search profile-serve fuzz fuzz-ci smoke tables examples check ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (stdlib-only; see HACKING.md "Static
# analysis"). Exits non-zero on any finding without a //lint:ignore reason.
lint:
	$(GO) run ./cmd/twlint ./...

# The linter linting itself: cmd/twlint and internal/lint are not library
# packages, so the strict checks skip them under ./... — this target holds
# the analysis code to the same no-unexplained-findings bar anyway.
lint-self:
	$(GO) run ./cmd/twlint ./cmd/twlint ./internal/lint ./internal/lint/cfg

# Golden diff over the bad fixtures: the full suite's JSON finding stream is
# byte-deterministic, so any analyzer change that moves, adds or drops a
# finding shows up as a diff against internal/lint/testdata/golden.jsonl.
lint-golden:
	$(GO) run ./cmd/twlint -json internal/lint/testdata/src/*/bad | diff -u internal/lint/testdata/golden.jsonl -

lint-golden-update:
	-$(GO) run ./cmd/twlint -json internal/lint/testdata/src/*/bad > internal/lint/testdata/golden.jsonl

# Serial and concurrent: the buffer pool, the build's sorting goroutines and
# the shared-handle search paths behave differently with one scheduler
# thread and with several, so the suite must be green at both ends. Every
# search runs serially, so the work pin (TestEngineWorkPinned), the envelope
# gate's on/off identity (TestEnvelope*, TestMultivarEnvelope*) and the
# options' identity (TestSearchWithDeterministic) are ordinary tests here.
test:
	GOMAXPROCS=1 $(GO) test ./...
	GOMAXPROCS=4 $(GO) test ./...

# The documented pre-PR gate: everything that must be green before review.
check: build vet lint test race

# The full CI gate: the pre-PR gate, the shared-handle concurrency suite
# under the race detector, a bounded fuzz pass over the kernel fuzz
# targets, the server smoke drill, the linter over its own sources, the
# fixture golden diff, and the machine-readable lint gate (any finding
# fails the run; the JSON lines feed CI annotations). Wire codec skew is
# tier-1's: TestWireBytesPinned pins every layout and
# TestRoundTripZeroAndExtreme catches a field written only for some values.
ci: check race-concurrency race-shard race-mmap race-build fuzz-ci smoke lint-self lint-golden
	$(GO) run ./cmd/twlint -json ./...

# The concurrent-search suite under -race, run twice: many goroutines on
# one index handle must return byte-identical answers, and the pooled query
# contexts must leak no state between queries. -count=2 reruns with warm
# sync.Pools, the state-reuse case a single pass misses. Each search holds
# one page pinned through its node reader and the pool recycles the frames
# it evicts, so the suite — with the tests that every path out of a search
# unpins (over the scalar and the vector kernel) and that a recycled frame
# is never a pinned one — runs with one scheduler thread and with four.
RACE_CONCURRENCY = -race -count=2 -run 'TestConcurrent|TestQueryCtxReuse|TestPoolConcurrent|TestPoolRecyclesFrames|TestSetEpochReuse|SearchReleasesReader|TestReader' ./seqdb/ ./internal/core/ ./internal/multivar/ ./internal/storage/ ./internal/pending/ ./internal/disktree/
race-concurrency:
	GOMAXPROCS=1 $(GO) test $(RACE_CONCURRENCY)
	GOMAXPROCS=4 $(GO) test $(RACE_CONCURRENCY)

# Horizontal-sharding determinism under -race, run twice: at shard counts
# {1,2,3,5}, range searches, streamed visits, k-NN and scans must return
# answers byte-identical to the unsharded database — in process and through
# a sharded twsearchd mount. Also covers the scatter-gather
# coordinator's partial-failure and merge paths; the partial-failure test
# orders its shards with gates, and fifty runs hold it to that.
race-shard:
	$(GO) test -race -count=2 -run 'TestSharded|TestShardedByteIdentical|TestServerSharded|TestPartialFailure|TestSearch|TestScanMerges|TestManifest' ./internal/shard/ ./seqdb/ ./seqdb/server/
	$(GO) test -race -count=50 -run TestSearchPartialFailure ./internal/shard/

# Storage-backend determinism under -race, run twice: mixed Search/KNN from
# 8 goroutines through the buffer pool and mmap backends — over both node
# record encodings — must return answers byte-identical to the pool
# baseline, a vector index built in v1 and one built by default in v2 must
# reopen through both and answer alike, and the PageSource contract and
# view-concurrency suites must hold for both (mmap on a file that cannot be
# mapped is the pool).
race-mmap:
	$(GO) test -race -count=2 -run 'TestBackend|TestPageSource|TestMmap|TestViewConcurrent|TestBackingReadAt|TestEncodingV2|TestVectorEncodingsReopen' ./seqdb/ ./internal/storage/ ./internal/disktree/

# The write path under -race, serial and concurrent: disktree.Build sorts its
# suffix buckets on up to GOMAXPROCS goroutines while one streams the sorted
# ones out and another flushes the chunks, core and multivar encode their
# texts on as many, so every build test of disktree and of multivar, which
# builds through it (the differential, determinism, failure-and-leak and
# fuzz-seed tests among them), the flat text store, the selecting fit against
# its sort-based reference and the bulk dataset I/O run once with one
# scheduler thread and once with four — the determinism test pins the bytes
# across them. core's indexes are built by the same call in every one of its
# tests; `make race` covers them.
RACE_BUILD = -race -count=1 -run 'Build|TestWriteFailureSurfaces|TestTextStoreFlat|MaxEntropy|Binary|TestGridTableMatchesMap' ./internal/disktree ./internal/multivar ./internal/suffixtree ./internal/categorize ./internal/sequence
race-build:
	GOMAXPROCS=1 $(GO) test $(RACE_BUILD)
	GOMAXPROCS=4 $(GO) test $(RACE_BUILD)

# End-to-end server drill under the race detector: boot twsearchd on an
# ephemeral port, stream matches over concurrent client connections,
# deliver a real SIGTERM, and require a clean drain (zero leaked
# goroutines — the same bar the seqdb/server integration tests enforce).
smoke:
	$(GO) test -race -count=1 -run 'TestDaemonSmoke|TestServer' ./cmd/twsearchd/ ./seqdb/server/

# The fuzz targets CI runs, as package:target pairs — the distance-kernel,
# the verifier-against-table (scalar and vector), engine-equivalence (scalar
# and vector kernel, range and k-NN), wire round-trip, build-versus-naive,
# node-codec, scheme-reader, the two dataset-reader, fit-versus-reference and
# file-corruption targets.
# A new target is added here, once; `fuzz` runs this list plus FUZZ_EXTRA,
# giving the two engine-equivalence targets twice the time.
FUZZ_ENGINE = \
	./internal/core/:FuzzSearchMatchesScan \
	./internal/multivar/:FuzzVectorSearchMatchesScan
FUZZ_CI = \
	./internal/dtw/:FuzzDistanceProperties \
	./internal/dtw/:FuzzIntervalLowerBound \
	./internal/dtw/:FuzzThresholdRows \
	./internal/multivar/:FuzzThresholdRows \
	$(FUZZ_ENGINE) \
	./internal/categorize/:FuzzReadScheme \
	./internal/categorize/:FuzzFit \
	./internal/sequence/:FuzzReadBinary \
	./internal/multivar/:FuzzReadBinary \
	./internal/disktree/:FuzzValidateCorruption \
	./internal/wire/:FuzzFrameRoundTrip \
	./internal/disktree/:FuzzBuildVsNaive \
	./internal/disktree/:FuzzNodeCodecV2
FUZZ_EXTRA = \
	./internal/sequence/:FuzzReadCSV
# $(call fuzz-each,pairs,time): one bounded `go test -fuzz` per pair, seeds +
# corpus only, stopping at the first failure.
fuzz-each = set -e; for pt in $(1); do $(GO) test -fuzz "^$${pt\#\#*:}$$" -fuzztime $(2) "$${pt%%:*}"; done

# Bounded fuzzing for CI: every FUZZ_CI target, 10s each.
fuzz-ci:
	$(call fuzz-each,$(FUZZ_CI),10s)

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Quick pass over the in-package Go benchmarks (one iteration each). The
# repository's benchmark is `go run ./bench`; see bench/README.md.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# Where a query's time goes: CPU profiles of BenchmarkSearchSelective and
# BenchmarkSearchBroad (internal/core: fixed walks and queries shaped like
# the benchmark's two single-client workloads, ns/node and ns/cell beside
# ns/op; each runs over a v1 and a v2 tree, so one profile holds decodeV1
# and decodeCompact side by side) and of BenchmarkSearchTrajectory
# (internal/multivar: the same engine over the vector kernel), written with
# the test binaries to PROFILE_DIR; the top of each is printed.
PROFILE_DIR ?= /tmp/twsearch-profile
profile-search:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'SearchSelective$$' -benchtime 1000x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/selective.prof ./internal/core
	$(GO) test -run '^$$' -bench 'SearchBroad$$' -benchtime 300x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/broad.prof ./internal/core
	$(GO) test -run '^$$' -bench 'SearchTrajectory$$' -benchtime 300x -o $(PROFILE_DIR)/multivar.test -cpuprofile $(PROFILE_DIR)/trajectory.prof ./internal/multivar
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/selective.prof
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/broad.prof
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/multivar.test $(PROFILE_DIR)/trajectory.prof

# Where a served query's time goes: a CPU profile of
# BenchmarkServeSearchBroad (seqdb/server: the broad-shaped queries of
# BenchmarkSearchBroad through a loopback server and client.SearchWith in
# one process, so the engine, the batched match stream and the client's
# decode share one profile; ns/answer and allocs/answer beside ns/op),
# written with the test binary to PROFILE_DIR; the top 20 is printed.
profile-serve:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'ServeSearchBroad$$' -benchtime 300x -o $(PROFILE_DIR)/server.test -cpuprofile $(PROFILE_DIR)/serve.prof ./seqdb/server
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/server.test $(PROFILE_DIR)/serve.prof

# Short fuzz session over every fuzz target: 10s each, 20s for the engine
# pair.
fuzz:
	$(call fuzz-each,$(filter-out $(FUZZ_ENGINE),$(FUZZ_CI)) $(FUZZ_EXTRA),10s)
	$(call fuzz-each,$(FUZZ_ENGINE),20s)

# Regenerate the paper's tables and figures at full scale, in work counters
# (about a minute; the output is benchtables_full.txt).
tables:
	$(GO) run ./cmd/benchtables -scale 1 -queries 5 -seed 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stocks
	$(GO) run ./examples/ecg
	$(GO) run ./examples/multivariate
	$(GO) run ./examples/tuning
	$(GO) run ./examples/cbf
	$(GO) run ./examples/motifs

clean:
	$(GO) clean -testcache
