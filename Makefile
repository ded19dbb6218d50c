# Developer entry points. `make check` is the CI list
# (.github/workflows/ci.yml) minus the fuzz step and the call-graph upload.
# Performance is judged by `go run ./bench` (BENCHMARK.json), results by
# `make gates`.

GO ?= go

.PHONY: check build vet test race fuzz lint lintgraph benchsmoke gates uncovered

check: build vet test race lint gates benchsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The checksum kernel is also tested on a 32-bit target, which the amd64
# toolchain runs natively: it must give the same bits there.
test:
	$(GO) test ./...
	GOARCH=386 $(GO) test ./internal/proto/inet

race:
	$(GO) test -race ./...

# fuzz gives every Fuzz* target in the module ten seconds of generated inputs
# (`go test -fuzz` takes one target of one package at a time). The seeds run
# in `test` already; this is the CI step after it, and not part of `check`.
# A failing input is written under the package's testdata/fuzz/: commit it.
fuzz:
	@set -e; grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . | \
	while IFS=: read -r file fn; do \
		echo "fuzz $${file%/*} $${fn#func }"; \
		$(GO) test -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime 10s "$${file%/*}"; \
	done

# lint runs the full suite, one analyzer per invariant, with per-analyzer
# wall time on stderr, so a slow analyzer is visible the day it regresses.
# -why prints each finding's root-to-finding chain, so a failing run needs
# no second run to explain itself.
lint:
	$(GO) run ./cmd/scoutlint -timing -why ./...

# lintgraph dumps the data-path call graph (roots + resolved edges) in its
# stable text form; CI uploads it as an artifact so reviewers can diff how
# the data-path surface changed.
LINTGRAPH ?= callgraph.txt
lintgraph:
	$(GO) run ./cmd/scoutlint -graph $(LINTGRAPH) ./...

# benchsmoke runs one iteration of the wall-clock microbenchmarks (path
# create, the three demux benches, the checksum kernel, and the disabled
# tracer's hot path, whose nil guards every untraced path pays) to prove they
# still run; timings at -benchtime=1x are indicative only.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkE1|BenchmarkE2' -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkSum -benchmem -benchtime 1x ./internal/proto/inet
	$(GO) test -run '^$$' -bench BenchmarkDisabledHotPath -benchmem -benchtime 1x ./internal/pathtrace

# gates is the determinism gate, in one process: every experiment in
# internal/exp's registry runs twice at CI size and must print the same bytes
# both times (E10: export the same trace and metrics too), pass its own check
# (E12 and E14 match the reference kernel, E14 migrates once within budget,
# E15 is identical at every shard count, E11's audits are clean) and match its
# committed digest in internal/exp/golden.go. See README "Running experiments
# and gates".
gates:
	$(GO) run ./cmd/mpegbench -gate -smoke

# uncovered lists every function under internal/ that no test in the module
# executes (tests of other packages count: -coverpkg). Not a gate and not in
# `check` or CI: it is where the next deletion starts from.
COVEROUT ?= cover.out
uncovered:
	$(GO) test -coverpkg=./internal/... -coverprofile=$(COVEROUT) ./...
	$(GO) tool cover -func=$(COVEROUT) | awk '$$NF == "0.0%"'
