#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through to
# perfbench.exe (see perfbench/perfbench.ml).  Run from the repository
# root.  Build output goes to standard error and to .bench_build/.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/perfbench.exe >&2
exec .bench_build/default/perfbench/perfbench.exe "$@"
