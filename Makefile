# LPVS build & verification targets. `make check` is the pre-merge
# gate: formatting, vet, build, the full test suite under the race
# detector (see ROADMAP.md), then only what `race` cannot do — the
# emulator sessions that drive the CLIs end to end, the allocation
# guards (which skip themselves under the detector), one pass of every
# benchmark, and a time-boxed fuzz of every target. No smoke target
# re-runs a test `race` already ran.

GO ?= go

# Per-target budget for `make fuzz-smoke`; raise it (FUZZTIME=1m) for a
# longer shake before a release or after touching a fuzzed surface.
FUZZTIME ?= 3s

.PHONY: all build test race vet vet-extra fmt check bench bench-smoke fuzz-smoke cli-smoke ingest-smoke loc

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

check: fmt vet vet-extra build race cli-smoke ingest-smoke bench-smoke fuzz-smoke

# ingest-smoke guards what the race run cannot see of the report path
# (DESIGN.md §16): one pass of the ingest benchmarks, so the zero-alloc
# decode path cannot bitrot, and the slot path's allocation and memory
# guards — testing.AllocsPerRun tests, the socket-level
# TestRoundTripAllocs (DESIGN.md §18) and a stream's resident bytes
# (TestStreamResidentBytes, DESIGN.md §11), which skip themselves under
# the `race` target's detector.
ingest-smoke:
	$(GO) test -count=1 ./internal/server/ -run '^$$' -bench BenchmarkIngest -benchtime 1x -benchmem >/dev/null
	$(GO) test -count=1 -run 'Allocs|ResidentBytes' ./internal/scheduler/ ./internal/server/ ./internal/obs/ ./internal/obs/span/ ./internal/obs/audit/ ./internal/client/ ./internal/router/

# cli-smoke drives the operator CLIs end to end — lpvs-emu and lpvsctl,
# built once each — over two real emulator sessions:
#  A. write → kill → resume (DESIGN.md §14): a run stopped and
#     checkpointed after slot 3, then resumed to slot 6, must leave one
#     audit log that replays byte-identically (§10) and recovers into a
#     snapshot. So must internal/obs/audit/testdata/v1, the schema-1 log
#     of the same session written before the record gained its window
#     table: old logs stay readable for as long as they exist on disk.
#  B. an uninterrupted run with a 1ns slot-latency budget: its report
#     must carry the SLO verdict lines (§13), its synthetic-clock alarm
#     must write an incident bundle that lists and whose embedded audit
#     records replay byte-identically (§15), and its own audit log must
#     replay.
cli-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; set -e; \
	$(GO) build -o "$$dir/lpvs-emu" ./cmd/lpvs-emu; \
	$(GO) build -o "$$dir/lpvsctl" ./cmd/lpvsctl; \
	emu="$$dir/lpvs-emu"; ctl="$$dir/lpvsctl"; \
	a="-seed 11 -n 16 -slots 6 -capacity 4 -audit-dir $$dir/a"; \
	"$$emu" $$a -stop-after 3 -checkpoint "$$dir/ckpt.lpvs" >/dev/null; \
	"$$emu" $$a -resume "$$dir/ckpt.lpvs" >/dev/null; \
	for log in "$$dir/a" internal/obs/audit/testdata/v1; do \
		"$$ctl" audit replay "$$log"; \
		"$$ctl" audit recover -out "$$dir/recovered.lpvs" "$$log"; \
	done; \
	out="$$("$$emu" -seed 7 -n 12 -slots 4 -capacity 4 -slo-slot-latency 1ns \
		-audit-dir "$$dir/b" -flight-dir "$$dir/flight")"; \
	echo "$$out" | grep -q "slo slot-latency" || { \
		echo "emulator report missing SLO verdict lines:"; echo "$$out"; exit 1; }; \
	ls "$$dir/flight"/incident-*.flight >/dev/null; \
	"$$ctl" flight list "$$dir/flight"; \
	"$$ctl" flight show "$$dir/flight" >/dev/null; \
	"$$ctl" audit replay "$$dir/b"

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

# loc is the ruler for deletion PRs (ROADMAP item 8): Go lines outside
# _test.go that are neither blank nor a // comment, per top-level
# directory ("." is the root package) and in total. Quote it before and
# after in CHANGES.md.
loc:
	@total=0; \
	for d in . $$(find . -mindepth 2 -name '*.go' | cut -d/ -f2 | sort -u); do \
		depth=""; [ "$$d" = . ] && depth="-maxdepth 1"; \
		n=$$(find ./$$d $$depth -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'); \
		printf '%-10s %7d\n' "$$d" "$$n"; total=$$((total + n)); \
	done; \
	printf '%-10s %7d\n' total "$$total"
