GO ?= go

.PHONY: all check build test race cover bench allocs benchmark-ab deadcode faults obs spill server chaos yannakakis batch fuzz fuzz-smoke fmt fmt-check vet clean

all: check

check: build fmt-check vet test race fuzz-smoke deadcode

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Allocation pins: every test under internal/ named *Allocs or
# *Allocations, three times, without the race detector (its sync.Pool
# drops puts at random, so pool-backed bounds do not hold there). A pin
# that only sometimes holds fails here.
allocs:
	$(GO) test -count=3 -run 'Allocs|Allocations' ./internal/...

# Served-query A/B: the benchmark at REF against the working tree in
# PAIRS alternating pairs of SECONDS-second runs per workload (seeds
# 101, 102, ...), printed as per-metric medians with REF's quartiles and
# a better/worse verdict (>= 9 of 10 pairs, medians further apart than
# REF's interquartile range). TRACE=1 compares the per-layer metrics.
# REF is exported with git archive; nothing under benchmark/ is touched.
REF ?= HEAD
WORKLOADS ?= point_hit plan_cold scan_join spill_join wide_result
PAIRS ?= 10
SECONDS ?= 15
TRACE ?= 0
benchmark-ab:
	$(GO) run ./cmd/benchab -ref $(REF) -workloads "$(WORKLOADS)" -pairs $(PAIRS) -seconds $(SECONDS) -trace $(TRACE)

# Reachability ratchet: TestUnreached lists every declaration under
# internal/ that the mains of cmd/ojserver, cmd/ojshell and benchmark
# never reach, checked against testdata/unreached.txt (which may only
# shrink); -v adds the list's line total and the wider report with every
# main in the repository as a root.
deadcode:
	$(GO) test -count=1 -run '^TestUnreached$$' -v .

# Fault-injection and resource-governance suite; -count=2 shakes out
# state reuse across re-Open (operators must fully reset).
faults:
	$(GO) test -count=2 -run 'Fault|ErrorPath|Cancelled|Deadline|MemoryBudget|Degradation|Governor|Leak|Collect' ./internal/exec ./internal/storage ./internal/resource ./internal/optimizer

# Observability suite: the metrics registry and tracer, the span/stats
# consistency property, concurrent scraping during concurrent joins, and
# the shell's monitoring surfaces (metrics, trace export with the served
# query's phase spans, and the -metrics-addr / -slow-query flags it
# shares with ojserver) — under the race detector, -count=2 for state
# reuse.
obs:
	$(GO) test -race -count=2 ./internal/obs ./internal/exec -run 'Span|Scrape|Counter|Histogram|Gauge|Registry|Trace|Ring|Slow|Server|Health|Metrics'
	$(GO) test -race -count=2 ./cmd/ojshell ./cmd/ojserver

# Spill-to-disk suite: grace hash join, the spilled nested-loop join,
# the semijoin filter's trip onto it, the shared spool's spilled readers, the
# metamorphic and fault-injection spill oracles, and the
# failed-Open/trip-during-Open governor regressions —
# under the race detector, -count=2 for state reuse across re-Open.
# Runs with TMPDIR pointed at a scratch dir and fails if any ojspill-*
# run file survives the suite.
spill:
	@dir=$$(mktemp -d) && \
	TMPDIR=$$dir $(GO) test -race -count=2 -run 'Spill|FailedOpen|TripDuring|Grace|Spool|SemiReduceTrip' ./internal/exec ./internal/exec/spill ./internal/optimizer && \
	leaked=$$(find $$dir -name 'ojspill-*' | wc -l) && \
	rm -rf $$dir && \
	if [ $$leaked -ne 0 ]; then echo "spill: $$leaked run files leaked"; exit 1; fi

# Concurrent query server suite: admission control (FIFO order,
# oversized/queue-full shedding, cancel-while-queued, never-overcommit
# stress), the TCP protocol end to end, the workload driver, and the
# 16-client mixed-traffic soak (prepared hits, cold misses, governor
# trips, spilling, cancellations against one shared core) with tracer
# reconciliation and goroutine/temp-file leak checks — under the race
# detector, -count=2 for state reuse across server restarts.
server:
	$(GO) test -race -count=2 ./internal/server ./internal/workload ./cmd/ojserver

# Chaos suite: the fault-injection wrapper's determinism and framing
# contracts, connection hygiene (bounded lines, idle timeout,
# kill-conn-mid-execute), panic isolation, load shedding, graceful
# drain, the retrying client, and the seeded 16-client chaos soak
# (10% per-I/O fault rate with injected executor panics; goodput,
# bag-correctness, tracer reconciliation and leak checks) — under the
# race detector, -count=2 for state reuse. The soak seed is fixed in
# chaos_soak_test.go, so a failure replays byte-for-byte.
chaos:
	$(GO) test -race -count=2 ./internal/chaos
	$(GO) test -race -count=2 -run 'Chaos|Panic|MaxLine|IdleTimeout|KillConn|Shedding|Drain|BusyQuery' ./internal/server ./internal/exec
	$(GO) test -race -count=2 ./internal/workload

# Yannakakis acyclic fast-path suite: join-tree construction and the
# outerjoin-aware reducer program, the semijoin-reduce operator (both
# paths, spill, null keys, reduction counters), the spool that
# evaluates each shared reducer step once, the 200-instance
# metamorphic oracle against the DP and fixed-order execution on
# dangling-heavy data (with the intermediate-cardinality guarantee and
# one evaluation per reducer step checked on every instance, at every
# batch size and across a memory-grant sweep with spill on and off),
# strategy dispatch/fallback/auto, plan-cache keying, and the dangling
# workload generator — under the race
# detector, -count=2 for state reuse across re-Open. The spill leak
# check mirrors the spill suite's.
yannakakis:
	@dir=$$(mktemp -d) && \
	TMPDIR=$$dir $(GO) test -race -count=2 -run 'Yannakakis|JoinTree|ReducerProgram|SemiReduce|Strategy|Dangling|Spool' \
		./internal/graph ./internal/exec ./internal/optimizer ./internal/workload && \
	leaked=$$(find $$dir -name 'ojspill-*' | wc -l) && \
	rm -rf $$dir && \
	if [ $$leaked -ne 0 ]; then echo "yannakakis: $$leaked run files leaked"; exit 1; fi

# Batch-execution suite: the batch layer's unit tests (null bitmap,
# adapter round-trip, nested-loop spill lifecycle, stream mode), the
# registry-wide row-ownership detector (poisoned producers + scribbling
# callers), and the 200-instance metamorphic oracles at one row per
# batch and at the default size, each checked against the reference
# algebra — under the race detector, -count=2 for state reuse across
# re-Open, with the spill-leak check (the nested-loop tests spill).
batch:
	@dir=$$(mktemp -d) && \
	TMPDIR=$$dir $(GO) test -race -count=2 -run 'Batch|Ownership|Metamorphic' \
		./internal/exec ./internal/optimizer && \
	leaked=$$(find $$dir -name 'ojspill-*' | wc -l) && \
	rm -rf $$dir && \
	if [ $$leaked -ne 0 ]; then echo "batch: $$leaked run files leaked"; exit 1; fi

# Each fuzz target runs for a short budget; extend FUZZTIME for real runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz='FuzzExpr$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzPred$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzExprGraph$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -fuzz='FuzzFingerprint$$' -fuzztime=$(FUZZTIME) ./internal/plancache
	$(GO) test -fuzz='FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -fuzz='FuzzTableLiteral$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzValue$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzBytes$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzProtocol$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -fuzz='FuzzResponseJSON$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -fuzz='FuzzJoinTree$$' -fuzztime=$(FUZZTIME) ./internal/optimizer

# Quick fuzz smoke for check/CI: a few seconds each on the pipeline
# targets (parser front half, plan-cache fingerprint invariance, the
# full protocol dispatch surface, the response encoder against
# json.Marshal) catches gross regressions without the full fuzz budget.
SMOKETIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='FuzzParse$$' -fuzztime=$(SMOKETIME) ./internal/parse
	$(GO) test -run='^$$' -fuzz='FuzzFingerprint$$' -fuzztime=$(SMOKETIME) ./internal/plancache
	$(GO) test -run='^$$' -fuzz='FuzzProtocol$$' -fuzztime=$(SMOKETIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='FuzzResponseJSON$$' -fuzztime=$(SMOKETIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='FuzzJoinTree$$' -fuzztime=$(SMOKETIME) ./internal/optimizer

fmt:
	gofmt -w .

# Fails when any file differs from gofmt's output (run make fmt to fix).
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmt-check: files above need gofmt"; exit 1; }

vet:
	$(GO) vet ./...

clean:
	rm -f freejoin.test
