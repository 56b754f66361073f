#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash perfbench/run.sh --workload analytical --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/hqbench.ml ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

# --cache=disabled keeps every build artifact inside this checkout
dune build --root . --cache=disabled ./perfbench/hqbench.exe 1>&2
exec ./_build/default/perfbench/hqbench.exe "$@"
