# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples clean doc quickbench ci fmt chaos servesmoke certfuzz

all: build

# What CI runs: full build, test suite, formatting gate, quick paper
# report, serve smoke, certificate soundness fuzzing.
ci: build test fmt quickbench servesmoke certfuzz

fmt:
	dune build @fmt

build:
	dune build @all

test:
	dune runtest

retest:
	dune runtest --force --no-buffer

# The paper report EXPERIMENTS.md quotes: Table I, the split-certificate
# table, Figures 1-4 and the ablations. Speed claims live in perfbench
# (BENCHMARK.json), not here.
bench:
	dune exec bench/main.exe

# The same report with each Table I solve timed once and one
# split-certificate case: a smoke run that every section still works.
quickbench:
	dune exec bench/main.exe -- --quick

# Seeded fault-injection campaign: verdicts may degrade under faults,
# never flip. CI runs this for three seeds (chaos-matrix job).
chaos:
	dune exec bin/contiver.exe -- chaos --seed 1 --rounds 8

# Serve smoke: a bounded self-driving serve session must complete two
# monitored OOD -> SVuDC -> commit rounds under a deadline and emit a
# valid contiver-serve-status-v1 stream with artifact-cache hits.
servesmoke:
	timeout 120 dune exec bin/contiver.exe -- serve --drive --rounds 2 > SERVE_SMOKE.ndjson
	python3 scripts/check_serve_status.py SERVE_SMOKE.ndjson 2

# Certificate soundness fuzzing: random nets/properties through the
# full pipeline with --emit-cert semantics, every certificate replayed
# by the trusted checker, mutants rejected, Violated verdicts
# cross-checked against concrete evaluation. Any failing certificate
# is dumped under _build/certfuzz-failures (CI uploads it). The fixed
# seeds are the CI smoke matrix; `make certfuzz SEEDS="9 10"` overrides
# them.
SEEDS ?= 1 2 3 11 34 36
certfuzz:
	dune build test/certfuzz.exe
	for s in $(SEEDS); do \
	  dune exec test/certfuzz.exe -- -seed $$s -rounds 40 \
	    -out _build/certfuzz-failures || exit 1; \
	done

# Every example, as CI runs them (about 75 s on 2 vCPUs, most of it
# lane_following and fine_tuning); the last two drive Cv_core.Session
# end to end.
examples:
	dune exec examples/quickstart.exe
	dune exec examples/paper_example.exe
	dune exec examples/lane_following.exe
	dune exec examples/fine_tuning.exe
	dune exec examples/collision_avoidance.exe
	dune exec examples/continuous_loop.exe

# requires odoc (not vendored): opam install odoc
doc:
	dune build @doc

clean:
	dune clean
