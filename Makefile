# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet race bench fuzz-smoke chaos-smoke serve-smoke serve-fast-smoke serve-tiles-smoke obs-smoke elements-smoke workloads-smoke cluster-smoke figures results-check examples clean

all: build vet test

# Race-detector pass over everything, exercising the bench worker pool
# (the serial/parallel equivalence test runs with Parallelism: 8).
race:
	go test -race ./...

# Short live-fuzzing pass over the native targets (seed corpora alone run
# in `make test`): the deserializers and the serialize round trip, each
# differentially checked against the reference codec, including a System
# running under an injected-fault schedule; the reference codec's own
# round trip (Size, re-parse, re-encode, Clone and Merge); then the serving
# wire protocol — message framing and chunk trains, request bodies and
# response bodies — where nothing may panic and every accepted message
# must read back equal once encoded again.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDeserialize -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzSerializeRoundTrip -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzUnmarshalRoundTrip -fuzztime 30s ./internal/pb/codec
	go test -run '^$$' -fuzz FuzzReadMessage -fuzztime 15s ./internal/serve
	go test -run '^$$' -fuzz FuzzParseRequest -fuzztime 15s ./internal/serve
	go test -run '^$$' -fuzz FuzzParseResponse -fuzztime 15s ./internal/serve

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
# byte-identical to its canonical payload — both fault-free and under an
# injected-fault schedule.
serve-smoke:
	go test -race -count=1 ./internal/serve
	go test -race -count=10 -run '^Test(Conn|ServeConn|ServeTCP|ProtocolRoundTrip|ReadMessage|MessageRoundTrip)' ./internal/serve
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema varint -check
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema mixed -check -faults 0.02 -fault-seed 7

# Both cycle modes under byte verification: an exact pass and a sampled
# pass (1-in-8 batches run the full cycle model, the rest serve
# functional bytes) must both answer byte-identical to the canonical
# codec, single- and multi-tile.
serve-fast-smoke:
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema all -check -cycle-mode exact
	go run ./cmd/loadgen -duration 500ms -concurrency 8 -schema all -check -cycle-mode sampled -cycle-sample-n 8
	go run ./cmd/loadgen -tiles 4 -routing rr -duration 500ms -concurrency 8 -schema mixed -check -cycle-mode sampled

# Short verified multi-tile passes: the p2c router, then deterministic
# round-robin — every response checked byte-identical to its canonical
# payload — plus a faulted run where the schedule is quarantined to one
# tile.
serve-tiles-smoke:
	go run ./cmd/loadgen -tiles 4 -duration 500ms -concurrency 8 -schema varint -check
	go run ./cmd/loadgen -tiles 4 -routing rr -duration 500ms -concurrency 8 -schema mixed -check
	go run ./cmd/loadgen -tiles 4 -duration 500ms -concurrency 8 -schema string -check -faults 0.02 -fault-seed 7 -fault-tiles 1

# End-to-end observability smoke: a real daemon with the admin plane up,
# driven over TCP while loadgen scrapes /statusz + /metrics at ~10Hz
# (every tick re-validates the Prometheus exposition; the run fails on
# any exposition error or if no scrape landed). Then checks from the
# daemon's /metrics that requests were queued and executed (the stage
# histogram counts, summed over tiles, are nonzero), exercises the
# SIGUSR1 mid-run stats flush, and checks the span trace is non-empty
# JSON.
obs-smoke:
	go build -o /tmp/protoaccd-smoke ./cmd/protoaccd
	rm -f /tmp/obs_smoke_stats.json /tmp/obs_smoke_spans.json
	/tmp/protoaccd-smoke -listen 127.0.0.1:7419 -admin 127.0.0.1:7420 \
	  -tiles 2 -span-sample-n 16 -stats-out /tmp/obs_smoke_stats.json & \
	pid=$$!; \
	ok=0; for i in $$(seq 50); do \
	  curl -sf http://127.0.0.1:7420/healthz >/dev/null && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "obs-smoke: admin endpoint never came up"; kill $$pid; exit 1; }; \
	go run ./cmd/loadgen -addr 127.0.0.1:7419 -admin-url http://127.0.0.1:7420 \
	  -duration 500ms -concurrency 8 -schema mixed -check \
	  -trace-out /tmp/obs_smoke_spans.json \
	  || { kill $$pid; exit 1; }; \
	curl -s http://127.0.0.1:7420/metrics | \
	  awk '/^protoacc_serve_stage_execute_ns_count[{ ]/ {e += $$2} \
	    /^protoacc_serve_stage_queue_wait_ns_count[{ ]/ {q += $$2} \
	    END {exit !(e > 0 && q > 0)}' \
	  || { echo "obs-smoke: no executed or queued requests in the stage histograms"; kill $$pid; exit 1; }; \
	kill -USR1 $$pid; sleep 0.3; \
	[ -s /tmp/obs_smoke_stats.json ] || { echo "obs-smoke: SIGUSR1 flushed no stats"; kill $$pid; exit 1; }; \
	kill $$pid; wait $$pid
	grep -q traceEvents /tmp/obs_smoke_spans.json

# End-to-end element-chain smoke: a real daemon with the full chain on
# and a fast breaker, driven with hot-key-skewed verified traffic, then a
# breaker drill over the admin plane — /faultz poisons tile 1, the trip
# is asserted from /metrics, injection stops, and a recovery pass must
# re-close the breaker (live state gauge back to 0). Also asserts the
# skewed pass produced nonzero cache hits.
elements-smoke:
	go build -o /tmp/protoaccd-elements ./cmd/protoaccd
	/tmp/protoaccd-elements -listen 127.0.0.1:7423 -admin 127.0.0.1:7424 \
	  -tiles 4 -elements all \
	  -breaker-window 200ms -breaker-trip-rate 0.3 -breaker-min-volume 8 \
	  -breaker-open-for 100ms -breaker-probes 4 & \
	pid=$$!; \
	ok=0; for i in $$(seq 50); do \
	  curl -sf http://127.0.0.1:7424/healthz >/dev/null && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "elements-smoke: admin endpoint never came up"; kill $$pid; exit 1; }; \
	go run ./cmd/loadgen -addr 127.0.0.1:7423 \
	  -duration 1s -concurrency 8 -schema varint -skew 1.2 -check \
	  || { kill $$pid; exit 1; }; \
	curl -s http://127.0.0.1:7424/metrics | \
	  awk '/^protoacc_serve_elements_cache_hits /{found=1; exit !($$2>0)} END{exit !found}' \
	  || { echo "elements-smoke: no cache hits under skewed traffic"; kill $$pid; exit 1; }; \
	curl -sf "http://127.0.0.1:7424/faultz?tile=1&faults=0.9" >/dev/null \
	  || { echo "elements-smoke: /faultz injection failed"; kill $$pid; exit 1; }; \
	go run ./cmd/loadgen -addr 127.0.0.1:7423 \
	  -duration 1s -concurrency 8 -schema varint -check \
	  || { kill $$pid; exit 1; }; \
	curl -s http://127.0.0.1:7424/metrics | \
	  awk '/^protoacc_serve_elements_breaker_trips /{found=1; exit !($$2>0)} END{exit !found}' \
	  || { echo "elements-smoke: breaker never tripped on the faulted tile"; kill $$pid; exit 1; }; \
	curl -sf "http://127.0.0.1:7424/faultz?tile=1&faults=off" >/dev/null \
	  || { echo "elements-smoke: /faultz clear failed"; kill $$pid; exit 1; }; \
	go run ./cmd/loadgen -addr 127.0.0.1:7423 \
	  -duration 1s -concurrency 8 -schema varint -check \
	  || { kill $$pid; exit 1; }; \
	curl -s http://127.0.0.1:7424/metrics | \
	  awk '/^protoacc_serve_elements_breaker_closes /{found=1; exit !($$2>0)} END{exit !found}' \
	  || { echo "elements-smoke: breaker never re-closed after injection stopped"; kill $$pid; exit 1; }; \
	curl -s http://127.0.0.1:7424/metrics | \
	  grep -q 'protoacc_serve_live_breaker_state{tile="1"} 0' \
	  || { echo "elements-smoke: tile 1 breaker not closed at end of drill"; kill $$pid; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null; true

# End-to-end fleet-shaped workloads smoke: a real daemon, a short seeded
# trace replayed byte-verified, then a 2-hop service chain (frontend→kv,
# kv→backend) — every hop's serialize/deserialize on the accelerated
# serving path. Asserts the trace group and both hop groups recorded
# traffic and the run held -check throughout.
workloads-smoke:
	go build -o /tmp/protoaccd-workloads ./cmd/protoaccd
	/tmp/protoaccd-workloads -listen 127.0.0.1:7425 -admin 127.0.0.1:7426 -tiles 2 & \
	pid=$$!; \
	ok=0; for i in $$(seq 50); do \
	  curl -sf http://127.0.0.1:7426/healthz >/dev/null && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "workloads-smoke: admin endpoint never came up"; kill $$pid; exit 1; }; \
	go run ./cmd/loadgen -addr 127.0.0.1:7425 -workload all \
	  -trace-seed 1 -trace-len 512 -hops 2 -concurrency 4 -check \
	  > /tmp/workloads_smoke.out 2>&1 \
	  || { cat /tmp/workloads_smoke.out; kill $$pid; exit 1; }; \
	cat /tmp/workloads_smoke.out; \
	for g in trace hop0 hop1; do \
	  awk -v want="serve/workload/$$g/requests" \
	    '$$1==want {found=1; exit !($$2>0)} END{exit !found}' /tmp/workloads_smoke.out \
	    || { echo "workloads-smoke: no traffic recorded for $$g"; kill $$pid; exit 1; }; \
	done; \
	kill $$pid; wait $$pid 2>/dev/null; true

# Disaggregated-pool smoke: the cluster balancer under the race detector
# (routing, hedging, failover, /healthz ejection and recovery against the
# real admin handler, 1-vs-2-node determinism), then the -cluster flag
# path: two live daemons driven through the balancer with hedging and
# health polling on, serve/cluster counters asserted nonzero.
cluster-smoke:
	go test -race -count=1 ./internal/serve/cluster
	go build -o /tmp/protoaccd-cluster ./cmd/protoaccd
	/tmp/protoaccd-cluster -listen 127.0.0.1:7427 -admin 127.0.0.1:7428 & pid1=$$!; \
	/tmp/protoaccd-cluster -listen 127.0.0.1:7429 -admin 127.0.0.1:7430 & pid2=$$!; \
	ok=0; for i in $$(seq 50); do \
	  curl -sf http://127.0.0.1:7428/healthz >/dev/null && \
	  curl -sf http://127.0.0.1:7430/healthz >/dev/null && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "cluster-smoke: daemons never came up"; kill $$pid1 $$pid2; exit 1; }; \
	go run ./cmd/loadgen -cluster 127.0.0.1:7427,127.0.0.1:7429 \
	  -cluster-admin 127.0.0.1:7428,127.0.0.1:7430 -hedge \
	  -duration 1s -concurrency 8 -schema varint -check \
	  > /tmp/cluster_smoke.out 2>&1 \
	  || { cat /tmp/cluster_smoke.out; kill $$pid1 $$pid2; exit 1; }; \
	cat /tmp/cluster_smoke.out; \
	grep -Eq 'cluster: 2 nodes  requests=[1-9]' /tmp/cluster_smoke.out \
	  || { echo "cluster-smoke: no serve/cluster accounting in output"; kill $$pid1 $$pid2; exit 1; }; \
	kill $$pid1 $$pid2; wait $$pid1 $$pid2 2>/dev/null; true

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
