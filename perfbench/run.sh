#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the
# last stdout line is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a dbp checkout (dune-project, lib/, perfbench/)" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  DUNE=(dune)
elif command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi

"${DUNE[@]}" build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
