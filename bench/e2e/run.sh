#!/bin/sh
# Build the benchmark from source, then run one workload.
#
#   sh bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.  The release profile
# gives the cross-module inlining an optimised build of the library has;
# the dune cache is disabled so the build reads and writes nothing
# outside the checkout.
set -eu
dune build --root . --profile release --cache=disabled --display=quiet \
  ./bench/e2e/rthv_bench.exe >&2
exec ./_build/default/bench/e2e/rthv_bench.exe "$@"
