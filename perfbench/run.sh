#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it:
#
#   bash perfbench/run.sh --workload deep-search --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout.  Build output stays in ./_build (dune's
# shared cache is disabled so nothing is written outside the checkout);
# the build log goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -u
cd "$(dirname "$0")/.." || exit 1
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
exec ./_build/default/perfbench/main.exe "$@"
