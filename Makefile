# twsearch developer targets. Everything here is plain Go tooling; the
# Makefile only names the common invocations.

GO ?= go

.PHONY: all build vet lint lint-self lint-golden lint-golden-update test race race-concurrency race-shard race-mmap race-build run-lists cover bench profile-search profile-serve fuzz fuzz-ci smoke tables examples check ci clean

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
# gate's on/off identity (TestEnvelope*, at dimension 1 to 3) and the
# options' identity (TestSearchWithDeterministic) are ordinary tests here.
test:
	GOMAXPROCS=1 $(GO) test ./...
	GOMAXPROCS=4 $(GO) test ./...

# The documented pre-PR gate: everything that must be green before review.
check: build vet lint test race

# The full CI gate: the pre-PR gate, the shared-handle concurrency suite
# under the race detector, a bounded fuzz pass over the kernel fuzz
# targets, the server smoke drill, the linter over its own sources, the
# fixture golden diff, the examples (each creates, saves, indexes and
# reopens a database, so every file writer runs end to end), and the
# machine-readable lint gate (any finding fails the run; the JSON lines
# feed CI annotations). Wire codec skew is tier-1's: TestWireBytesPinned
# pins every layout and TestRoundTripZeroAndExtreme catches a field
# written only for some values.
ci: check race-concurrency race-shard race-mmap race-build fuzz-ci smoke run-lists lint-self lint-golden examples
	$(GO) run ./cmd/twlint -json ./...

# The concurrent-search suite under -race, run twice: many goroutines on
# one index handle must return byte-identical answers, and the pooled query
# contexts must leak no state between queries. -count=2 reruns with warm
# sync.Pools, the state-reuse case a single pass misses. Each search holds
# one page pinned through its node reader and the pool recycles the frames
# it evicts, so the suite — with the test that every path out of a search
# unpins (core's TestSearchReleasesReader, at dimension 1 and 2) and that a
# recycled frame is never a pinned one — runs with one scheduler thread and
# with four. TestConcurrentVectorSearches is the same contract over one
# handle of a database of dimension 2.
RACE_CONCURRENCY = -race -count=2 -run 'TestConcurrent|TestQueryCtxReuse|TestPoolConcurrent|TestPoolRecyclesFrames|SearchReleasesReader|TestReader' ./seqdb/ ./internal/core/ ./internal/storage/ ./internal/disktree/
race-concurrency:
	GOMAXPROCS=1 $(GO) test $(RACE_CONCURRENCY)
	GOMAXPROCS=4 $(GO) test $(RACE_CONCURRENCY)

# Horizontal-sharding determinism under -race, run twice: at shard counts
# {1,2,3,5}, range searches, streamed visits, k-NN and scans must return
# answers byte-identical to the unsharded database — in process and through
# a sharded twsearchd mount, and for a database of dimension 2 split into
# two shards — and a flat directory must answer as its 1-shard root does,
# in the same order and with the same errors; every stream, an exact
# index's included, in process and served, arrives in position order.
# Also covers the scatter-gather coordinator's
# partial-failure and merge paths, the refusal of shards that disagree
# with their manifest or each other, and the cleanup of a failed
# partition, and the reopen of a flat database or a root whose build was
# cut before any shard committed its record; the partial-failure test
# orders its shards with gates, and fifty runs hold it to that.
RACE_SHARD = -race -count=2 -run 'TestSharded|TestShardedByteIdentical|TestServerSharded|TestPartialFailure|TestSearch|TestScanMerges|TestManifest|TestOpenShardedCorruption|TestOpenRefusesShardMismatch|TestPartitionInto|TestOneShardRootMatchesFlat|TestExactVisitOrder|TestServerExactOrder|TestInterruptedBuildOpens' ./internal/shard/ ./seqdb/ ./seqdb/server/
RACE_SHARD_GATES = -race -count=50 -run TestSearchPartialFailure ./internal/shard/
race-shard:
	$(GO) test $(RACE_SHARD)
	$(GO) test $(RACE_SHARD_GATES)

# Storage-backend determinism under -race, run twice: mixed Search/KNN from
# 8 goroutines through the buffer pool and mmap backends — over both node
# record encodings — must return answers byte-identical to the pool
# baseline, an index of dimension 2 built in v1 and one built by default in
# v2 must reopen through both and answer alike, and the PageSource contract and
# view-concurrency suites must hold for both (mmap on a file that cannot be
# mapped is the pool). A tree cut after open must fail a read softly through
# both, in process and over the wire: the mapping's fault guard
# (TestMmapFaultGuard, TestValidateCutAfterOpen, and the cut-tree arms of
# the last two tests).
RACE_MMAP = -race -count=2 -run 'TestBackend|TestPageSource|TestMmap|TestViewConcurrent|TestBackingReadAt|TestEncodingV2|TestVectorEncodingsReopen|TestValidateCutAfterOpen|TestOneShardRootMatchesFlat|TestServerTreeReadFailureIsInternal' ./seqdb/ ./seqdb/server/ ./internal/storage/ ./internal/disktree/
race-mmap:
	$(GO) test $(RACE_MMAP)

# The write path under -race, serial and concurrent: disktree.Build sorts its
# suffix buckets on up to GOMAXPROCS goroutines while one streams the sorted
# ones out and another flushes the chunks, and categorize encodes the texts
# on as many, so every build test of disktree (the differential,
# determinism, failure-and-leak and fuzz-seed tests among them), the grid's
# fit and encoding (categorize's TestGridTableMatchesMap), the fit that
# encodes on every core (TestFitOnceMatchesFit), core's parallel encode on
# reopening an index of dimension 1 and of 2 (TestOpenExistingIndex), the
# flat text store, the selecting fit against its sort-based reference and
# the bulk dataset I/O of both dimensions run once with one scheduler
# thread and once with four — the determinism test pins the bytes across
# them. core's other indexes are built by the same call in every one of its
# tests; `make race` covers them.
RACE_BUILD = -race -count=1 -run 'Build|TestWriteFailureSurfaces|TestTextStoreFlat|MaxEntropy|Binary|TestGridTableMatchesMap|TestFitOnceMatchesFit|TestOpenExistingIndex' ./internal/disktree ./internal/core ./internal/suffixtree ./internal/categorize ./internal/sequence
race-build:
	GOMAXPROCS=1 $(GO) test $(RACE_BUILD)
	GOMAXPROCS=4 $(GO) test $(RACE_BUILD)

# End-to-end server drill under the race detector: boot twsearchd on an
# ephemeral port, stream matches over concurrent client connections,
# deliver a real SIGTERM, and require a clean drain (zero leaked
# goroutines — the same bar the seqdb/server integration tests enforce).
SMOKE = -race -count=1 -run 'TestDaemonSmoke|TestServer' ./cmd/twsearchd/ ./seqdb/server/
smoke:
	$(GO) test $(SMOKE)

# Every -run list above names tests that exist: `go test -run` with a name
# that matches nothing passes, running nothing, so a test renamed or moved
# to another package would drop out of its race target silently. Each
# |-alternative of each list must match a test, fuzz target or example of
# the packages the list names (`go test -list`), or the run fails.
comma := ,
run-matches = set -e; set -- $(subst |,$(comma),$(subst ',,$(1))); pat=; pkgs=; \
	while [ $$\# -gt 0 ]; do case "$$1" in -run) pat=$$2; shift;; ./*) pkgs="$$pkgs $$1";; esac; shift; done; \
	names=$$($(GO) test -list . $$pkgs | grep -E '^(Test|Fuzz|Example)'); \
	for alt in $$(echo "$$pat" | tr , ' '); do \
		echo "$$names" | grep -Eq -- "$$alt" || { echo "-run alternative $$alt matches no test in$$pkgs" >&2; exit 1; }; \
	done
run-lists:
	$(call run-matches,$(RACE_CONCURRENCY))
	$(call run-matches,$(RACE_SHARD))
	$(call run-matches,$(RACE_SHARD_GATES))
	$(call run-matches,$(RACE_MMAP))
	$(call run-matches,$(RACE_BUILD))
	$(call run-matches,$(SMOKE))

# The fuzz targets CI runs, as package:target pairs — the distance-kernel,
# the verifier-against-table, the backward pass and the windowed admission
# bound against the scan, engine-equivalence (range and k-NN), each at
# dimension 1 and 2, wire round-trip, build-versus-naive, node-codec, the
# scheme, grid and index record readers, the dataset reader's (the seeds of both
# magics), fit-versus-reference and file-corruption targets.
# A new target is added here, once; `fuzz` runs this list plus FUZZ_EXTRA.
# FUZZ_DIM2 are the three targets that each hold the seeds of a former
# dimension-2 twin, and run as long as the two did together: 20s each in
# `fuzz-ci`, and in `fuzz` 20s, but 40s for the engine target.
FUZZ_ENGINE = ./internal/core/:FuzzSearchMatchesScan
FUZZ_DIM2 = \
	$(FUZZ_ENGINE) \
	./internal/dtw/:FuzzThresholdRows \
	./internal/sequence/:FuzzReadBinary
FUZZ_CI = \
	./internal/dtw/:FuzzDistanceProperties \
	./internal/dtw/:FuzzIntervalLowerBound \
	./internal/dtw/:FuzzBackwardBound \
	./internal/dtw/:FuzzAdmissionBound \
	$(FUZZ_DIM2) \
	./internal/categorize/:FuzzReadScheme \
	./internal/categorize/:FuzzReadGrid \
	./internal/core/:FuzzReadIndexRecord \
	./internal/categorize/:FuzzFit \
	./internal/disktree/:FuzzValidateCorruption \
	./internal/wire/:FuzzFrameRoundTrip \
	./internal/disktree/:FuzzBuildVsNaive \
	./internal/disktree/:FuzzNodeCodecV2
FUZZ_EXTRA = \
	./internal/sequence/:FuzzReadCSV
# $(call fuzz-each,pairs,time): one bounded `go test -fuzz` per pair, seeds +
# corpus only, stopping at the first failure — or at a pair whose package
# has no such target, which `go test -fuzz` would pass having fuzzed nothing.
fuzz-each = set -e; for pt in $(1); do \
	$(GO) test -list "^$${pt\#\#*:}$$" "$${pt%%:*}" | grep -qx "$${pt\#\#*:}" || { echo "no fuzz target $${pt\#\#*:} in $${pt%%:*}" >&2; exit 1; }; \
	$(GO) test -fuzz "^$${pt\#\#*:}$$" -fuzztime $(2) "$${pt%%:*}"; done

# Bounded fuzzing for CI: every FUZZ_CI target, 10s each, 20s for
# FUZZ_DIM2.
fuzz-ci:
	$(call fuzz-each,$(filter-out $(FUZZ_DIM2),$(FUZZ_CI)),10s)
	$(call fuzz-each,$(FUZZ_DIM2),20s)

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
# and decodeCompact side by side) and of BenchmarkSearchTrajectory (the
# same engine and kernel over points of dimension 2, verified by
# dtw.Verifier's point loop), written with the test binary to PROFILE_DIR;
# the top of each is printed.
PROFILE_DIR ?= /tmp/twsearch-profile
profile-search:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'SearchSelective$$' -benchtime 1000x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/selective.prof ./internal/core
	$(GO) test -run '^$$' -bench 'SearchBroad$$' -benchtime 300x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/broad.prof ./internal/core
	$(GO) test -run '^$$' -bench 'SearchTrajectory$$' -benchtime 300x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/trajectory.prof ./internal/core
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/selective.prof
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/broad.prof
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/trajectory.prof

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

# Short fuzz session over every fuzz target: 10s each, 20s for FUZZ_DIM2
# and 40s for the engine target.
fuzz:
	$(call fuzz-each,$(filter-out $(FUZZ_DIM2),$(FUZZ_CI)) $(FUZZ_EXTRA),10s)
	$(call fuzz-each,$(filter-out $(FUZZ_ENGINE),$(FUZZ_DIM2)),20s)
	$(call fuzz-each,$(FUZZ_ENGINE),40s)

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
