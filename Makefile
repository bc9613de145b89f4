.PHONY: all test bench shardcheck tracecheck cubeops servicecheck bench-service aigcheck bench-aig dccheck kcheck ci doc clean

all:
	dune build @all

test:
	dune runtest

# Scheduler soundness gate: every quick (circuit, method) cell runs once
# more with an explicitly attached empty don't-care view and must be
# byte-identical to its no-view reference; the per-method literal totals
# must match the pinned quick-suite figures (245/241/239/234/238), and
# rar's (which takes no view) must read 247. Tables II-V then run on the
# full suite: every cell must verify, no row may have a method worse
# than the one before it (sis >= basic >= ext >= ext-GDC), and each
# table's per-method totals are pinned.
shardcheck:
	dune exec bench/main.exe -- shardcheck quick

# Degraded-run robustness gate: rerun the quick rows and optimize-aig on
# random_small.aag with a tiny fault budget and a trace file, then lint
# every trace line as JSON and check the degraded results are still
# equivalent (and the AIG never grew).
tracecheck:
	dune exec bench/main.exe -- tracecheck quick

# Packed cube kernel vs the seed's list cubes: containment and
# intersection throughput on synthetic multi-word covers.
cubeops:
	dune exec bench/main.exe -- cubeops

# Resident-service gate: start an in-process rarsubd, run a scripted
# miss/hit/bypass sequence over the quick cells, assert every response
# is byte-identical to the cold reference run, the cache counters are
# exact, and malformed/oversized frames are refused without downing the
# daemon. The sequence runs twice: against a daemon at its default
# worker count (jobs on a worker domain) and against one at jobs = 1
# (jobs inline on the event loop, as perfbench's daemon-mix runs it).
servicecheck:
	dune exec bench/main.exe -- servicecheck quick

# Throughput/latency snapshot for the resident service: one cold pass,
# one client replaying the workload warm, then 8 concurrent clients
# replaying it warm. Writes BENCH_service.json (committed); fails if the
# single-client warm repeats are not at least 5x faster than cold.
bench-service:
	dune exec bench/main.exe -- service quick

# AIG backend gate: AIGER write/parse fixpoint and parse = compact on
# the bundled .aag fixtures, then windowed
# resubstitution asserting that the end-of-run live recount agrees
# (reported as a FAIL line, not a crash), a never-increasing gate
# count, and simulation equivalence through the Network bridge.
aigcheck:
	dune exec bench/main.exe -- aigcheck

# External don't-care discipline gate on the bundled DC-rich fixture:
# each Boolean method must beat its literal-improvement floor while
# verifying equivalent modulo the view. (That an empty view is
# invisible is shardcheck's.)
dccheck:
	dune exec bench/main.exe -- dccheck

# Constructive k-resubstitution gate: every quick (circuit, method)
# cell is verified with the BDD oracle (exact, not sampled), resub-k's
# total meets the ext floor (<= 239), and its candidate-construction
# CPU stays below ext's division CPU. Byte identity across empty views
# and the pinned totals of every method, resub-k included, are
# shardcheck's.
kcheck:
	dune exec bench/main.exe -- kcheck quick

# Windowed-resub snapshot at real-benchmark scale: four generated
# circuits of 12k-100k gates, gates/literals before and after plus wall
# seconds. Writes BENCH_aig.json (committed).
bench-aig:
	dune exec bench/main.exe -- aig

# Full local CI: build, tests, the shardcheck empty-view gate (pinned
# quick and Tables II-V totals), the degraded-run/trace gate,
# the cube-kernel microbenchmark, the resident-
# service miss/hit byte-identity gate, the AIG backend round-trip and
# windowed-resub gate, the external don't-care discipline
# gate, the constructive k-resub BDD-verify and floor gate, and the quick
# machine-readable perf snapshot (writes BENCH_resub.json for cross-PR
# trajectory tracking; fails if total cpu_seconds — including the
# multi-pass script benchmark — regresses >20% vs the previous
# snapshot).
ci:
	dune build @all
	dune runtest
	dune exec bench/main.exe -- shardcheck quick
	dune exec bench/main.exe -- tracecheck quick
	dune exec bench/main.exe -- cubeops
	dune exec bench/main.exe -- servicecheck quick
	dune exec bench/main.exe -- aigcheck
	dune exec bench/main.exe -- dccheck
	dune exec bench/main.exe -- kcheck quick
	dune exec bench/main.exe -- bench quick

bench:
	dune exec bench/main.exe

doc:
	dune build @doc

clean:
	dune clean
