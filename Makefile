# Developer entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite under the race detector, and
# the seeded chaos suite.

GO ?= go

SMOKES = obs-smoke fleet-smoke decision-smoke replication-smoke pack-smoke cluster-obs-smoke analytics-smoke

.PHONY: check vet build test race chaos fleet-determinism analyze-determinism bin bench-smoke bench-capstore obs-overhead fuzz loc $(SMOKES)

check: vet build race chaos fleet-determinism analyze-determinism $(SMOKES) bench-smoke

vet:
	$(GO) vet -tags obsoverhead ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Seeded fault-injection suite: retry completion under injected 5xx /
# drop / anti-bot rates, byte-identical fault schedules across runs,
# torn-write repair, capd load shedding under saturation, and a ring
# whose storage nodes are killed and revived mid-ingest.
chaos:
	$(GO) test ./internal/resilience/... ./internal/crawler/ ./internal/capstore/ ./internal/capstore/replica/ -run 'Chaos' -count=1

# The fleet's headline invariant (N workers, one crashing mid-lease =
# the single-process store, byte for byte) at every scheduler width the
# crash path has been seen to depend on: the doomed worker must be
# granted its lease, and so crash, whatever GOMAXPROCS is.
fleet-determinism:
	for p in 1 2 4 8 16; do GOMAXPROCS=$$p $(GO) test ./internal/fleet/ -run TestFleetDeterminism -count=2 || exit 1; done

# The reproduction's numbers, pinned: the -quick study (every table
# and figure at test scale) must print exactly the committed golden, at
# one and at eight crawl workers, so the report depends on neither
# crawl concurrency nor map order, and a change that moves any number
# shows up as a diff of the golden. After an intended change,
# regenerate it with
#   ./bin/analyze -quick > cmd/analyze/testdata/quick.golden
analyze-determinism:
	$(GO) build -o bin/ ./cmd/analyze
	for w in 1 8; do ./bin/analyze -quick -workers $$w > bin/analyze-w$$w.out || exit 1; \
		cmp bin/analyze-w$$w.out cmd/analyze/testdata/quick.golden || exit 1; done

# The capture-store perf pairs: linear scan vs. indexed query on one
# store, and what a ring is asked (sweep, domain, host, count) through
# replica.Reader at one node vs. three; ahead of them the wire codec's
# per-record cost and allocations, and the key scanner's.
bench-capstore:
	$(GO) test ./internal/capturedb/ -run '^$$' -bench 'Encode|Decode|ScanKeys' -benchmem
	$(GO) test ./internal/capstore/ -run '^$$' -bench 'Query' -benchmem
	$(GO) test . -run '^$$' -bench 'ReplicatedQueryFanout' -benchmem

# The binaries the smoke scenarios boot as child processes, each built
# once however many scenarios share it.
bin:
	$(GO) build -o bin/ ./cmd/capd ./cmd/capring ./cmd/fleetd ./cmd/crawl ./cmd/consentd ./cmd/obsd ./cmd/analyzed ./cmd/analyze

# End-to-end scenarios against real processes (cmd/smoke, one file per
# scenario; DESIGN.md "Process plumbing" lists what each asserts):
#
#   obs-smoke          capd -metrics: every telemetry endpoint valid
#   fleet-smoke        capd + fleetd + 2 workers, SIGKILL a worker:
#                      store byte-identical to the single-process run
#   decision-smoke     consentd under mixed load, answers re-checked
#                      against the naive reference decoder
#   replication-smoke  3 capd + capring, SIGKILL a storage node: ring
#                      repairs it, owned segments byte-identical
#   pack-smoke         live compaction, SIGKILL mid-pass, re-delivery:
#                      byte-identical to a never-compacted store
#   cluster-obs-smoke  obsd over the ring: valid rollups, a trace
#                      stitched across four processes, a tripped alert
#   analytics-smoke    analyzed SIGKILL + checkpoint resume: served
#                      views byte-identical to `analyze -store`
$(SMOKES): %-smoke: bin
	$(GO) run ./cmd/smoke $*

# bench/ is its own module, so the root ./... patterns above never
# compile it; this stage keeps it building and its smoke pass green
# against the packages it imports from here.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Telemetry overhead gate: the live recorder must stay within 5% of
# the no-op recorder on both hot paths (TestTelemetryOverhead in
# obs_overhead_test.go holds the rule). Behind the obsoverhead build
# tag so `go test ./...` never runs it; not part of `make check`.
obs-overhead:
	$(GO) test -tags obsoverhead . -run '^TestTelemetryOverhead$$' -count 1 -v -timeout 20m

# Short fuzz passes: the capture wire format (torn writes, segment
# boundaries, malformed tuples), its hand-written codec against the
# encoding/json one and its key scanner against the decoder, retry
# classification of malformed webworld/chaos error strings, the fleet
# wire-protocol decoder, both TCF consent-string codecs, the
# compiled-vs-naive decision kernel differential, the consentd batch
# line parser against its canonical rendering, the placement-ring
# invariants, the durable append-log scan behind the fleet checkpoint
# and handoff logs, the analytics checkpoint header, the analytics
# key-scan row producer against RowOf over the decoded capture, the
# analysis folds' checkpointed state (FuzzFoldState caps input minimization at
# 1s: at the 60s default, minimizing its first new inputs takes the
# whole budget), and the lazily seeded rng stream source against
# math/rand over seeds and draw mixes.
fuzz:
	$(GO) test ./internal/capturedb/ -run '^$$' -fuzz FuzzScan -fuzztime 30s
	$(GO) test ./internal/capturedb/ -run '^$$' -fuzz FuzzCodecDifferential -fuzztime 30s
	$(GO) test ./internal/capturedb/ -run '^$$' -fuzz FuzzCanonicalKeys -fuzztime 30s
	$(GO) test ./internal/ring/ -run '^$$' -fuzz FuzzRingPlacement -fuzztime 20s
	$(GO) test ./internal/resilience/ -run '^$$' -fuzz FuzzClassifyError -fuzztime 15s
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 15s
	$(GO) test ./internal/tcf/ -run '^$$' -fuzz FuzzDecode$$ -fuzztime 20s
	$(GO) test ./internal/tcf/ -run '^$$' -fuzz FuzzDecodeV2 -fuzztime 20s
	$(GO) test ./internal/decision/ -run '^$$' -fuzz FuzzDecideDifferential -fuzztime 30s
	$(GO) test ./internal/decision/ -run '^$$' -fuzz FuzzBatchLine -fuzztime 15s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzLogScan -fuzztime 15s
	$(GO) test ./internal/analytics/ -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 15s
	$(GO) test ./internal/analytics/ -run '^$$' -fuzz FuzzRowOfLine -fuzztime 15s
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz FuzzFoldState -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/rng/ -run '^$$' -fuzz FuzzLazySource -fuzztime 30s

# Go line counts by class — non-test code outside bench/, tests, and
# bench/ — the measure a simplicity PR's "net negative" is held to.
loc:
	@count() { find . -name '*.go' "$$@" -print0 | xargs -0 cat | wc -l; }; \
	echo "non-test $$(count -not -name '*_test.go' -not -path './bench/*')"; \
	echo "test     $$(count -name '*_test.go' -not -path './bench/*')"; \
	echo "bench/   $$(count -path './bench/*')"
