#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a source checkout. Build output goes to .bench_build,
# scratch run logs to .bench_tmp; both stay inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release ./perfbench/perfbench.exe 1>&2
commit=none
if [ -e .git ] && command -v git >/dev/null; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi
PERFBENCH_COMMIT=$commit exec ./.bench_build/default/perfbench/perfbench.exe "$@"
