#!/usr/bin/env sh
# Pre-merge sanity check: documentation checks first (fast), then every
# example at smoke scale, then the kernel micro-benchmarks at smoke
# scale (46-56 s on a 2-vCPU VM, 32-39 s of it the staggered_phase
# reference at n=64; bench-smoke prints each entry's wall time and the
# total)
# -- flow simulation, routing, LP assembly, the search
# plane (MCMC steps/sec plus end-to-end alternating optimization), the
# multi-job shared-cluster scenario engine, and a capped fleet-scale
# trace scenario.  Exits non-zero if the docs are broken, an example
# fails or times out, a vectorized kernel has regressed to slower than
# its seed reference (src/repro/oracles.py), a kernel's result drifts
# from its oracle's (phase makespans, ECMP hop counts, LP matrices,
# MCMC and alternating-optimization costs), the scenario engine loses
# (spec, seed) determinism / reference-allocator equivalence, the
# scenario kernel falls under its 1.5x speedup floor at n=64, the fleet
# scenario fails to drain its trace, the scheduler policy sweep regresses
# (every queue policy -- FCFS, EASY, conservative backfill -- must
# drain a 100-job production trace deterministically under a 60 s
# wall-time cap, and backfill must strictly beat FCFS mean queueing
# delay on the canonical head-of-line-blocking trace), a randomized
# chaos scenario breaks a scheduler invariant or loses determinism,
# the failure-storm scenario regresses (every recovery policy --
# detour, reoptimize, checkpoint-restart -- must drain the trace
# through a correlated fault storm with zero invariant violations),
# or the optimization-as-a-service loop regresses (the warm
# store-backed drain of the Zipf request mix must be >= 5x cold
# specs/sec, the cold drain must compute each unique spec exactly
# once -- in-flight dedup -- and store-served results must be
# byte-identical to fresh computations).
#
# Usage: scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli check-docs
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli check-examples
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli chaos-smoke
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m repro.cli bench-smoke "$@"
