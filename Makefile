# Developer entry points. `make check` is the CI list
# (.github/workflows/ci.yml) minus the artifact uploads (lintgraph, bench).

GO ?= go

# Bench knobs: CI uses BENCHTIME=1x for a fast, non-noisy artifact; local
# runs can leave the default measurement time. BENCHCOUNT repeats each
# benchmark; benchjson keeps the best observation per metric (min cost,
# max fps), the standard defence against scheduler/GC noise on shared
# machines. BENCHBASE is the committed baseline benchdiff compares against.
BENCHTIME ?= 1s
BENCHCOUNT ?= 5
BENCHOUT ?= BENCH_pr14.json
BENCHBASE ?= BENCH_pr10.json

.PHONY: check build vet test race lint lintgraph bench benchdiff benchsmoke tracegate chaosgate fastgate mpgate miggate scalegate

check: build vet test race lint tracegate chaosgate fastgate mpgate miggate scalegate benchsmoke benchdiff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the full 12-analyzer suite with per-analyzer wall time on
# stderr, so a slow analyzer is visible the day it regresses.
lint:
	$(GO) run ./cmd/scoutlint -timing ./...

# lintgraph dumps the data-path call graph (roots + resolved edges) in its
# stable text form; CI uploads it as an artifact so reviewers can diff how
# the data-path surface changed.
LINTGRAPH ?= callgraph.txt
lintgraph:
	$(GO) run ./cmd/scoutlint -graph $(LINTGRAPH) ./...

# bench emits the machine-readable perf trajectory: raw `go test -bench`
# output is kept in BENCH_raw.txt and parsed into $(BENCHOUT) by
# cmd/benchjson. Two steps (not a pipe) so a bench failure fails the target.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ./internal/pathtrace ./internal/sim > BENCH_raw.txt
	$(GO) run ./cmd/benchjson -in BENCH_raw.txt -out $(BENCHOUT)

# benchdiff gates the perf trajectory: the committed candidate artifact must
# hold its thresholds against the committed baseline (allocs strictly, ns/op
# within ratio when CPUs match, fps no regression, and the flow cache's
# hit-vs-walk separation within the candidate itself).
benchdiff:
	$(GO) run ./cmd/benchjson -base $(BENCHBASE) -new $(BENCHOUT)

# benchsmoke is the CI-fast subset: one iteration of the wall-clock micro
# benchmarks (E1–E3 + cold miss) to prove they still run; timings at
# -benchtime=1x are indicative only.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkE1|BenchmarkE2|BenchmarkE3' -benchmem -benchtime 1x .

# tracegate is the determinism regression gate: two same-seed E10 smoke runs
# must export byte-identical traces and metrics.
tracegate:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/mpegbench -run e10 -e10-smoke -trace $$dir/a.json -metrics $$dir/am.json >/dev/null && \
	$(GO) run ./cmd/mpegbench -run e10 -e10-smoke -trace $$dir/b.json -metrics $$dir/bm.json >/dev/null && \
	cmp $$dir/a.json $$dir/b.json && cmp $$dir/am.json $$dir/bm.json && \
	echo "tracegate: E10 exports byte-identical across same-seed runs"; \
	rc=$$?; rm -rf $$dir; exit $$rc

# fastgate is the receive-path equivalence gate: E12 boots the same seeded
# world on the kernel and on the reference kernel (full demux walk, unfused
# delivery) and requires identical outputs (mpegbench exits non-zero on a
# mismatch).
fastgate:
	$(GO) run ./cmd/mpegbench -run e12 -e12-smoke

# samegate runs mpegbench experiment $(1) (smoke flag $(2)) twice at the same
# seed and requires byte-identical reports (wall-clock lines excluded — they
# legitimately vary). Either run failing its own internal gate (mpegbench
# exits non-zero) fails the target too.
define samegate
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/mpegbench -run $(1) $(2) > $$dir/a.raw && \
	$(GO) run ./cmd/mpegbench -run $(1) $(2) > $$dir/b.raw && \
	grep -v wall-clock $$dir/a.raw > $$dir/a.txt && \
	grep -v wall-clock $$dir/b.raw > $$dir/b.txt && \
	cmp $$dir/a.txt $$dir/b.txt && \
	echo "$@: $(1) report byte-identical across same-seed runs"; \
	rc=$$?; rm -rf $$dir; exit $$rc
endef

# mpgate is the multipath determinism gate: E13 smoke, the full k x policy
# grid with a mid-run link fault.
mpgate:
	$(call samegate,e13,-e13-smoke)

# miggate is the live-migration gate: E14 smoke (link killed mid-clip, path
# respliced onto the spare NIC), whose internal gate wants one migration
# within budget, zero incomplete frames and clean audits.
miggate:
	$(call samegate,e14,-e14-smoke)

# scalegate is the sharded-kernel determinism gate, two layers deep: each
# E15 smoke run internally requires identical digests/totals/event counts
# across shard counts, and the two runs must match each other.
scalegate:
	$(call samegate,e15,-e15-smoke)

# chaosgate is the overload-survival gate: the seeded chaos suite (fault
# plane, watchdog, degradation, lifecycle audits) must be race-clean, and
# the E11 smoke report must be reproducible.
chaosgate:
	$(GO) test -race ./internal/chaos ./internal/exp -run 'Chaos|E11|Inflate|Stall|Squeeze|Poison|Audit|Destroy'
	$(call samegate,overload,-overload-smoke)
