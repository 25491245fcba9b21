# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet race bench fuzz-smoke chaos-smoke serve-smoke serve-tiles-smoke daemon-smoke figures results-check examples clean

all: build vet test

# Race-detector pass over everything, exercising the bench worker pool
# (the serial/parallel equivalence test runs with Parallelism: 8).
race:
	go test -race ./...

# Short live-fuzzing pass over every native target (seed corpora alone run
# in `make test`): the deserializers, twice (BOOM and the accelerator,
# then also a System running under an injected-fault schedule), and the
# serialize round trip, each differentially checked against the
# reference codec; the reference codec's own round trip (Size, re-parse,
# re-encode, Clone and Merge); then the serving wire protocol — one
# length-prefixed frame per message, request bodies and response bodies —
# where nothing may panic and every accepted message must read back equal
# once encoded again; last, the /faultz admin request, which must answer
# 200 or 400 and, on a 200, set the schedule the -faults grammar parses.
# -fuzzminimizetime 1s: at the default 60s, minimizing each new
# interesting input took most of every line's budget.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDifferentialDeserialize -fuzztime 30s -fuzzminimizetime 1s ./internal/core
	go test -run '^$$' -fuzz FuzzDeserialize -fuzztime 30s -fuzzminimizetime 1s ./internal/core
	go test -run '^$$' -fuzz FuzzSerializeRoundTrip -fuzztime 30s -fuzzminimizetime 1s ./internal/core
	go test -run '^$$' -fuzz FuzzUnmarshalRoundTrip -fuzztime 30s -fuzzminimizetime 1s ./internal/pb/codec
	go test -run '^$$' -fuzz FuzzReadMessage -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	go test -run '^$$' -fuzz FuzzParseRequest -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	go test -run '^$$' -fuzz FuzzParseResponse -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	go test -run '^$$' -fuzz FuzzFaultz -fuzztime 15s -fuzzminimizetime 1s ./internal/serve

# The differential chaos harness under the race detector: faulted runs
# must produce byte-identical output to pure software, and fault-disabled
# runs must leave every measurement untouched.
chaos-smoke:
	go test -run TestChaos -race -count=1 ./internal/bench

# The serving layer under the race detector (batching, admission control,
# TCP transport, serial/parallel and pooled/fresh equivalence, chaos over
# the wire), the transport's Conn/serveConn/protocol tests ten times over
# (write coalescing and backpressure are concurrent by construction), then
# a short verified load-generation pass — every response checked
# byte-identical to its canonical payload — fault-free and under two
# injected-fault schedules. Each batch replays the schedule from its first
# trial (ResetBatch rewinds the injector), so a rate and seed fix one
# fault episode for every batch. At 0.02 every deserialize answer falls
# back to software; at 0.005 the serialize answers and about half the
# deserialize answers come from the accelerator, many after a retried
# fault, so -check byte-checks those too. Every cluster balancer test
# runs ten times under the race detector too: its timing drills (Conn
# timeouts, failover, ejection dwells, half-open probes and /healthz
# polls) run on the wall clock.
serve-smoke:
	go test -race -count=1 ./internal/serve
	go test -race -count=10 -run '^Test(Conn|ServeConn|ServeTCP|ProtocolRoundTrip|ReadMessage|MessageRoundTrip)' ./internal/serve
	go test -race -count=10 ./internal/serve/cluster
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema all -check
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema mixed -check -faults 0.02 -fault-seed 7
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema mixed -check -faults 0.005 -fault-seed 7

# Short verified multi-tile passes over the round-robin tile router —
# every response checked byte-identical to its canonical payload — plus
# a faulted run where the schedule is quarantined to one tile.
serve-tiles-smoke:
	go run ./cmd/loadgen -tiles 4 -duration 500ms -concurrency 8 -schema varint -check
	go run ./cmd/loadgen -tiles 4 -duration 500ms -concurrency 8 -schema mixed -check
	go run ./cmd/loadgen -tiles 4 -duration 500ms -concurrency 8 -schema string -check -faults 0.02 -fault-seed 7 -fault-tiles 1

# Live daemons end to end (TestSmoke in cmd/protoaccd): build protoaccd
# and loadgen, start daemons on ephemeral loopback ports, drive them with
# loadgen and check their admin planes: the observability plane under
# load, the element chain's cache and breaker drill, trace replay, and a
# health-polled two-daemon cluster. Every daemon
# must drain on SIGTERM and exit 0.
daemon-smoke:
	go test -count=1 -v -run TestSmoke ./cmd/protoaccd -smoke

build:
	go build ./...

# Static checks plus the allocation contracts: with tracing off, the
# observability layer must add zero allocations to the simulation hot
# paths (internal/telemetry/overhead_test.go), and a warmed serving tile
# must add a batch's unit counters without allocating (internal/serve;
# this line also runs the catalog's codec allocation check there).
# Last, no dead packages: every package under internal/ must be imported
# by some other package of the module, test imports included.
vet:
	go vet ./...
	go test -run 'Allocs|Amortized' -count=1 ./internal/telemetry ./internal/serve
	@dead=$$(go list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | \
	  awk '$$1 ~ /^protoacc\/internal\// { pkg[$$1] = 1 } \
	    { for (i = 2; i <= NF; i++) if ($$i != $$1) used[$$i] = 1 } \
	    END { for (p in pkg) if (!(p in used)) print p }' | sort); \
	[ -z "$$dead" ] || { echo "vet: packages under internal/ that nothing imports:"; echo "$$dead"; exit 1; }

test:
	go test ./...

# Regenerate every table/figure of the paper's evaluation.
figures:
	go run ./cmd/fleetprofile
	go run ./cmd/ubench -fig all -ops -ablation all
	go run ./cmd/hyperbench -stats
	go run ./cmd/asicreport -sweep

# Regenerate the paper figures and compare each byte for byte with its
# checked-in results/ file; any difference fails. ubench prints
# results/ubench.txt followed by results/ablations.txt. The telemetry
# reference artifacts are regenerated too: the cycle trace must match
# byte for byte, and the counter export every line but the manifest's
# "command" (its output paths) and "go_version".
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go run ./cmd/ubench -fig all -ops -ablation all > "$$tmp/ubench.txt"; \
	cat results/ubench.txt results/ablations.txt | cmp - "$$tmp/ubench.txt"; \
	go run ./cmd/hyperbench -stats > "$$tmp/hyperbench.txt"; \
	cmp results/hyperbench.txt "$$tmp/hyperbench.txt"; \
	go run ./cmd/fleetprofile > "$$tmp/fleetprofile.txt"; \
	cmp results/fleetprofile.txt "$$tmp/fleetprofile.txt"; \
	go run ./cmd/asicreport -sweep > "$$tmp/asicreport.txt"; \
	cmp results/asicreport.txt "$$tmp/asicreport.txt"; \
	go run ./cmd/hyperbench -dump-proto "$$tmp/hyperprotobench" > /dev/null; \
	diff -r results/hyperprotobench "$$tmp/hyperprotobench"; \
	go run ./cmd/ubench -fig 11a -parallel 1 -stats-out "$$tmp/telemetry_stats.json" \
	  -trace-op varint-5 -trace-out "$$tmp/telemetry_trace.json" > /dev/null; \
	cmp results/telemetry_trace.json "$$tmp/telemetry_trace.json"; \
	grep -v -e '"command":' -e '"go_version":' results/telemetry_stats.json > "$$tmp/stats.want"; \
	grep -v -e '"command":' -e '"go_version":' "$$tmp/telemetry_stats.json" | cmp "$$tmp/stats.want" -; \
	echo "results-check: every paper figure and telemetry artifact matches results/"

bench:
	go test -bench=. -benchmem ./...

examples:
	go run ./examples/quickstart
	go run ./examples/rpcservice
	go run ./examples/storagelog
	go run ./examples/telemetry

clean:
	go clean ./...
