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

.PHONY: all build test race vet vet-extra fmt check bench-smoke fuzz-smoke fuzz-promote cli-smoke ingest-smoke mutants fma-check loc

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

check: fmt vet vet-extra build race cli-smoke ingest-smoke bench-smoke fuzz-smoke mutants fma-check

# ingest-smoke guards what the race run cannot see of the report path
# (DESIGN.md §16): one pass of the ingest benchmarks, so the zero-alloc
# decode path cannot bitrot, and the slot path's allocation and memory
# guards — testing.AllocsPerRun tests (a warm ilp.Solver,
# transform.Default, bufpool.FreeList, the wire encoders' one allocation
# per frame and the JSON layout reader among them), the socket-level
# TestRoundTripAllocs (DESIGN.md §18) and what a pool or the daemon's
# audit builder retains between slots (TestStreamResidentBytes,
# TestPoolScratchBoundedAcrossVCIDs, TestAuditLineResidentBytes,
# DESIGN.md §9, §10), which skip themselves under the `race` target's
# detector.
ingest-smoke:
	$(GO) test -count=1 ./internal/server/ -run '^$$' -bench BenchmarkIngest -benchtime 1x -benchmem >/dev/null
	$(GO) test -count=1 -run 'Allocs|ResidentBytes|ScratchBounded' ./internal/bufpool/ ./internal/wire/ ./internal/ilp/ ./internal/transform/ ./internal/scheduler/ ./internal/server/ ./internal/obs/ ./internal/obs/span/ ./internal/obs/audit/ ./internal/client/ ./internal/router/

# cli-smoke drives the operator CLIs end to end — lpvs-emu and lpvsctl,
# built once each:
#  A. one uninterrupted 6-slot emulator session must leave an audit log
#     that replays byte-identically (DESIGN.md §10) and recovers into a
#     snapshot (§14). So must internal/obs/audit/testdata/v1, the
#     schema-1 log of the same session written before the record gained
#     its window table: old logs stay readable for as long as they exist
#     on disk.
#  B. cmd/lpvsctl/testdata/flight holds an incident bundle an lpvsd of
#     this repository wrote (TestFlightFixtureReplays rewrites it under
#     -update): it must list, and its embedded audit records must replay
#     byte-identically (§15). A second emulator session's own audit log
#     must replay too.
cli-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; set -e; \
	$(GO) build -o "$$dir/lpvs-emu" ./cmd/lpvs-emu; \
	$(GO) build -o "$$dir/lpvsctl" ./cmd/lpvsctl; \
	emu="$$dir/lpvs-emu"; ctl="$$dir/lpvsctl"; \
	"$$emu" -seed 11 -n 16 -slots 6 -capacity 4 -audit-dir "$$dir/a" >/dev/null; \
	for log in "$$dir/a" internal/obs/audit/testdata/v1; do \
		"$$ctl" audit replay "$$log"; \
		"$$ctl" audit recover -out "$$dir/recovered.lpvs" "$$log"; \
	done; \
	"$$ctl" flight list cmd/lpvsctl/testdata/flight; \
	"$$ctl" flight show cmd/lpvsctl/testdata/flight >/dev/null; \
	"$$emu" -seed 7 -n 12 -slots 4 -capacity 4 -audit-dir "$$dir/b" >/dev/null; \
	"$$ctl" audit replay "$$dir/b"

# bench-smoke compiles and runs every benchmark exactly once — a fast
# bitrot guard wired into `make check`. The end-to-end benchmark is
# bench/run.sh (see bench/README.md).
bench-smoke:
	$(GO) test -count=1 -run '^$$' -bench . -benchtime 1x ./... >/dev/null

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

# fuzz-promote copies the inputs `go test -fuzz` kept in the build
# cache ($(go env GOCACHE)/fuzz/<import path>/<Target>/) into the
# package's testdata/fuzz/<Target>/, where the plain `go test` runs them
# as seeds, and names each target that gained some. Inputs already
# there are left alone. Run it after a long fuzz (FUZZTIME=1m make
# fuzz-smoke) and check in what is worth keeping; it is not part of
# `make check`.
fuzz-promote:
	@cache="$$($(GO) env GOCACHE)/fuzz"; \
	$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for src in "$$cache/$$pkg"/Fuzz*; do \
			[ -d "$$src" ] || continue; \
			target="$$(basename "$$src")"; dst="$$dir/testdata/fuzz/$$target"; n=0; \
			for f in "$$src"/*; do \
				[ -e "$$dst/$$(basename "$$f")" ] && continue; \
				mkdir -p "$$dst" && cp "$$f" "$$dst/" || exit 1; n=$$((n + 1)); \
			done; \
			if [ $$n -gt 0 ]; then echo "$$pkg $$target: $$n new inputs in $$dst"; fi; \
		done; \
	done

# mutants checks that the tests can see the faults they exist to
# catch. Each testdata/mutants/*.patch is a one-file unified diff whose
# header names the package to test ("package: ") and a -run regex
# ("run: "); a "race: 1" line runs that test under the race detector,
# for a fault only the detector sees every run. The patched file is
# built in a temporary directory and swapped in with `go test
# -overlay`, so the tree is never touched. A mutant must be killed (the
# tests fail); a control-*.patch changes nothing a test can see and
# must survive, which proves a kill is the tests' doing. The target
# fails when a mutant survives, a control is killed, or a patch no
# longer applies.
mutants:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; bad=0; \
	for p in testdata/mutants/*.patch; do \
		name="$$(basename "$$p" .patch)"; \
		pkg="$$(sed -n 's/^package: //p' "$$p")"; run="$$(sed -n 's/^run: //p' "$$p")"; \
		race=; if [ "$$(sed -n 's/^race: //p' "$$p")" = 1 ]; then race=-race; fi; \
		file="$$(sed -n 's|^+++ b/||p' "$$p" | cut -f1)"; \
		if ! patch -s -F0 -r "$$tmp/$$name.rej" -o "$$tmp/$$name.go" "$$file" <"$$p" >/dev/null 2>&1; then \
			echo "NO-APPLY $$name ($$file)"; bad=1; continue; \
		fi; \
		printf '{"Replace":{"%s":"%s"}}\n' "$$PWD/$$file" "$$tmp/$$name.go" >"$$tmp/$$name.json"; \
		if $(GO) test $$race -count=1 -overlay "$$tmp/$$name.json" -run "$$run" "$$pkg" >/dev/null 2>&1; then \
			verdict=survived; else verdict=killed; fi; \
		case "$$name" in control-*) want=survived;; *) want=killed;; esac; \
		if [ "$$verdict" = "$$want" ]; then echo "ok   $$name $$verdict"; \
		else echo "FAIL $$name $$verdict, want $$want"; bad=1; fi; \
	done; \
	exit $$bad

# fma-check holds the determinism contract (DESIGN.md §10) where the
# compiler may fuse x*y + z into one rounding: arm64, ppc64le, s390x and
# riscv64 (gc does not fuse amd64 code). lpvsd and lpvsctl are
# cross-built for each, and no function in the decision-path packages
# below may disassemble to a fused multiply-add. Wrapping a product in an
# explicit float64(...) is the language's way to forbid the fusion; it
# leaves amd64 code unchanged. Needs only the toolchain. It checks our
# code only: on amd64 math.Exp picks an FMA path at run time, so φ still
# depends on the CPU (DESIGN.md §10).
FMA_PKGS = scheduler|anxiety|display|edge|bayes|ilp|transform|video|stats|frame
fma-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; bad=0; \
	for arch in arm64 ppc64le s390x riscv64; do \
		case $$arch in \
			arm64|riscv64) ops='FMADDD|FMSUBD|FNMADDD|FNMSUBD';; \
			ppc64le) ops='FMADD|FMSUB|FNMADD|FNMSUB';; \
			s390x) ops='MADBR|MSDBR';; \
		esac; \
		for cmd in lpvsd lpvsctl; do \
			GOOS=linux GOARCH=$$arch $(GO) build -o "$$tmp/$$cmd" ./cmd/$$cmd || exit 1; \
			$(GO) tool objdump -s '^lpvs/internal/($(FMA_PKGS))\.' "$$tmp/$$cmd" >"$$tmp/dis" || exit 1; \
			awk -v ops="^($$ops)\$$" -v bin="$$arch $$cmd" '/^TEXT /{fn=$$2; next} \
				{for (i = 2; i <= NF; i++) if ($$i ~ ops) {print "fused op: " bin " " fn " " $$1 " " $$i; break}}' \
				"$$tmp/dis" >"$$tmp/hits"; \
			if [ -s "$$tmp/hits" ]; then cat "$$tmp/hits"; bad=1; fi; \
		done; \
	done; \
	if [ $$bad = 0 ]; then echo "fma-check: no fused multiply-add on the decision path (arm64 ppc64le s390x riscv64)"; fi; \
	exit $$bad

# loc is the ruler for deletion PRs (ROADMAP item 8): Go lines outside
# _test.go that are neither blank nor a // comment, per top-level
# directory ("." is the root package) and in total. testdata directories
# are pruned, as the go tool ignores them. Quote it before and after in
# CHANGES.md.
loc:
	@total=0; \
	for d in . $$(find . -type d -name testdata -prune -o -name '*.go' -print | awk -F/ 'NF > 2 {print $$2}' | sort -u); do \
		depth=""; [ "$$d" = . ] && depth="-maxdepth 1"; \
		n=$$(find ./$$d $$depth -type d -name testdata -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'); \
		printf '%-10s %7d\n' "$$d" "$$n"; total=$$((total + n)); \
	done; \
	printf '%-10s %7d\n' total "$$total"
