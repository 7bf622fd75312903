# LPVS build & verification targets. `make check` is the pre-merge
# gate: formatting, vet, build, and the full test suite under the race
# detector (see ROADMAP.md).

GO ?= go

# Per-target budget for `make fuzz-smoke`; raise it (FUZZTIME=1m) for a
# longer shake before a release or after touching a fuzzed surface.
FUZZTIME ?= 3s

.PHONY: all build test race vet vet-extra fmt check bench bench-smoke fuzz-smoke audit-replay chaos-smoke slo-smoke snapshot-smoke flight-smoke ingest-smoke shard-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# vet-extra widens the static net beyond `go vet`: staticcheck when
# the toolchain has it (the repo stays stdlib-only, so it is never a
# hard dependency) and `gofmt -s` simplification findings, which the
# plain `fmt` gate does not check.
vet-extra:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s simplifications available in:"; echo "$$out"; exit 1; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: fmt vet vet-extra build race audit-replay chaos-smoke slo-smoke snapshot-smoke flight-smoke ingest-smoke shard-smoke bench-smoke fuzz-smoke

# shard-smoke drives the federation stack (DESIGN.md §17) end to end:
# the consistent-hash property tests, the shard daemon's /v1/shard/*
# surface, the router's tests over real loopback sockets — the N=1
# differential against a standalone control (byte-identical canonical
# decisions, replayable audits), merge determinism and the
# kill-one-shard degradation contract — and the fleet runner's
# exact-cover partition test.
shard-smoke:
	$(GO) test -count=1 ./internal/shard/
	$(GO) test -count=1 ./internal/server/ -run 'Shard'
	$(GO) test -count=1 ./internal/router/
	$(GO) test -count=1 ./internal/fleet/ -run 'Shard'

# ingest-smoke drives the binary report codec (DESIGN.md §16) end to
# end: the wire package's framing tests and fuzz seed corpora, the
# server's negotiation / batch-cap / pool-aliasing / metrics tests and
# the JSON-vs-binary decision differential, the client's fallback
# regression against an old-daemon stub, then one pass of the ingest
# benchmarks to guard the zero-alloc decode path against bitrot, and the
# slot path's allocation guards (testing.AllocsPerRun tests, which skip
# themselves under the `race` target's detector, so they run here).
ingest-smoke:
	$(GO) test -count=1 ./internal/wire/
	$(GO) test -count=1 ./internal/server/ -run 'Wire|Ingest|Batch|Differential|PoolScratch|MixedCodec|JSONDefault'
	$(GO) test -count=1 ./internal/client/ -run 'Wire|Fallback|BinaryDefault|JSONReports'
	$(GO) test -count=1 ./internal/server/ -run '^$$' -bench BenchmarkIngest -benchtime 1x -benchmem >/dev/null
	$(GO) test -count=1 -run 'Allocs' ./internal/scheduler/ ./internal/server/ ./internal/obs/ ./internal/obs/audit/ ./internal/client/

# chaos-smoke drives the resilience stack end to end: the retrying /
# breaker-guarded client against a real daemon wrapped in the seeded
# fault injector, plus the chaos package's own determinism tests.
chaos-smoke:
	$(GO) test -count=1 ./internal/chaos/
	$(GO) test -count=1 ./internal/client/ -run 'Chaotic|PartialFailure|CircuitBreaker|RetryBudget|RetryAfter|TypedAPIError'

# slo-smoke drives the fleet-health stack end to end: the SLO
# burn-rate engine, runtime self-telemetry, the per-VC fleet endpoints
# and label-budget tests, the lpvs-top dashboard against a live
# daemon, and one emulator run whose report must carry SLO verdicts.
slo-smoke:
	$(GO) test -count=1 ./internal/obs/slo/ ./internal/obs/runtimecollector/ ./cmd/lpvs-top/
	$(GO) test -count=1 ./internal/server/ -run 'Fleet|SLO|Readyz|VCLabelBudget'
	@out="$$($(GO) run ./cmd/lpvs-emu -seed 7 -n 12 -slots 4 -capacity 4)"; \
	echo "$$out" | grep -q "slo slot-latency" || { \
		echo "emulator report missing SLO verdict lines:"; echo "$$out"; exit 1; }

# snapshot-smoke drives the durable-state stack (DESIGN.md §14) end to
# end: the codec/corruption tests, the daemon kill-and-restart
# differential, the emulator checkpoint tests, then a real write →
# kill → resume session whose combined audit log must replay
# byte-identically and recover into a loadable snapshot.
snapshot-smoke:
	$(GO) test -count=1 ./internal/persist/
	$(GO) test -count=1 ./internal/server/ -run 'Snapshot|Restart|Restore'
	$(GO) test -count=1 ./internal/emu/ -run 'Checkpoint|Resume'
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/lpvs-emu -seed 11 -n 16 -slots 6 -capacity 4 -audit-dir "$$dir/audit" -stop-after 3 -checkpoint "$$dir/ckpt.lpvs" >/dev/null && \
	$(GO) run ./cmd/lpvs-emu -seed 11 -n 16 -slots 6 -capacity 4 -audit-dir "$$dir/audit" -resume "$$dir/ckpt.lpvs" >/dev/null && \
	$(GO) run ./cmd/lpvs-audit replay "$$dir/audit" && \
	$(GO) run ./cmd/lpvs-audit recover -out "$$dir/recovered.lpvs" "$$dir/audit"

# flight-smoke drives the black-box forensics stack (DESIGN.md §15)
# end to end: the metric-history and flight-recorder packages, the
# daemon's /v1/history and /v1/incident endpoints including the
# kill-and-inspect differential, the lpvs-flight CLI, then a real
# emulator run with a 1ns slot-latency budget whose synthetic-clock
# SLO alarm must write an incident bundle that lpvs-flight can list
# and whose embedded audit records replay byte-identically.
flight-smoke:
	$(GO) test -count=1 ./internal/obs/history/ ./internal/obs/flight/ ./cmd/lpvs-flight/
	$(GO) test -count=1 ./internal/server/ -run 'History|Incident|Flight|KillAndInspect|Forensics'
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/lpvs-emu -seed 7 -n 12 -slots 4 -capacity 4 -slo-slot-latency 1ns -audit-dir "$$dir/audit" -flight-dir "$$dir/flight" >/dev/null && \
	ls "$$dir/flight"/incident-*.flight >/dev/null && \
	$(GO) run ./cmd/lpvs-flight list "$$dir/flight" && \
	$(GO) run ./cmd/lpvs-flight show "$$dir/flight" >/dev/null

# audit-replay gates the determinism contract end to end: run a short
# audited emulator session, then re-run every logged decision through
# lpvs-audit and fail on any byte-level divergence. The same replay and
# recover run over cmd/lpvs-audit/testdata/v1, the schema-1 log the
# same session wrote before the record gained its window table: old
# logs must stay readable for as long as they exist on disk.
audit-replay:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/lpvs-emu -seed 11 -n 16 -slots 6 -capacity 4 -audit-dir "$$dir/v2" >/dev/null && \
	for log in "$$dir/v2" cmd/lpvs-audit/testdata/v1; do \
		$(GO) run ./cmd/lpvs-audit replay "$$log" && \
		$(GO) run ./cmd/lpvs-audit recover -out "$$dir/recovered.lpvs" "$$log" || exit 1; \
	done

# bench runs every benchmark with -benchmem and emits an
# environment-stamped JSON report (cores, GOMAXPROCS, Go version) via
# cmd/lpvs-benchjson — the format the recorded BENCH_*.json files use.
bench:
	$(GO) run ./cmd/lpvs-benchjson

# bench-smoke compiles and runs every benchmark exactly once — a fast
# bitrot guard wired into `make check`.
bench-smoke:
	$(GO) run ./cmd/lpvs-benchjson -benchtime 1x -out /dev/null

# fuzz-smoke runs every Fuzz* target for FUZZTIME each — a time-boxed
# coverage-guided shake beyond the checked-in seed corpora, inside
# `make check`. An input that fails is written by the toolchain to the
# package's testdata/fuzz/<Target>/ and from then on runs as a seed of
# the plain `go test`; check it in with the fix.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$f"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
		done; \
	done
