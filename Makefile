# Development entry points. `make check` is what CI runs: build,
# formatting (when ocamlformat is installed), and the full test suite.

.PHONY: all build test fmt check clean bench bench-build bench-select bench-async bench-transfer bench-fidelity bench-moo

all: build

build:
	dune build

test:
	dune runtest

bench-build:
	dune build bench/main.exe

# Naive-vs-compiled candidate ranking on kripke plus the large-pool
# protocol (10^5/10^6/10^7 synthetic pools: incremental refit vs the
# full-rebuild reference, streaming top-k, memory columns); writes
# BENCH_select.json in the current directory. Set
# HIPERBOT_SELECT_BUDGET to a pool-size cap for a quick smoke run
# (skips the larger pools and their performance floors; every
# bit-identity assertion still runs).
bench: bench-build
	dune exec bench/main.exe -- --experiment select

bench-select: bench

# Sync-vs-async campaign engine on kripke (k in-flight evaluations);
# writes BENCH_async.json and asserts k=1 bit-parity with the
# synchronous engine plus recall-within-noise for k > 1.
bench-async: bench-build
	dune exec bench/main.exe -- --experiment async

# Transfer learning on the Kripke and HYPRE source->target pairs;
# writes BENCH_transfer.json and asserts transfer recall beats the
# no-prior baseline on kripke. Set HIPERBOT_TRANSFER_BUDGET for a
# quick smoke run (skips the assertion).
bench-transfer: bench-build
	dune exec bench/main.exe -- --experiment transfer

# Multi-fidelity successive halving vs the flat full-fidelity tuner on
# kripke and hypre; writes BENCH_fidelity.json and asserts the
# successive-halving discovery recall matches the flat tuner at <=60%
# of its simulated cost, plus single-rung bit-parity with the async
# engine. Set HIPERBOT_FIDELITY_BUDGET for a quick smoke run (skips
# the recall/cost assertions; the bit-parity assertion still runs).
bench-fidelity: bench-build
	dune exec bench/main.exe -- --experiment fidelity

# Multi-objective tuning on the Kripke time+energy surface: scalarised
# moo campaigns vs random search vs two single-objective runs, scored
# by Pareto hypervolume against a shared reference; writes
# BENCH_moo.json and asserts the moo hypervolume is at least the
# random-search and each single-objective hypervolume. Set
# HIPERBOT_MOO_BUDGET for a quick smoke run (skips the hypervolume
# assertions; front sanity checks still run).
bench-moo: bench-build
	dune exec bench/main.exe -- --experiment moo

# The formatting gate is skipped when ocamlformat is not on PATH so
# `make check` works in minimal containers; install ocamlformat to
# enforce it locally.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt: ocamlformat not installed, skipping"; \
	fi

check: build bench-build fmt test

clean:
	dune clean
