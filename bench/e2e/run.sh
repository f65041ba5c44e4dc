#!/usr/bin/env bash
# Build the conferr CLI and the end-to-end benchmark from source, then run
# the benchmark with the given arguments (README.md).  Run it from the root
# of a conferr checkout:
#
#   bash bench/e2e/run.sh --workload campaign-db --seed 1 --seconds 20 --trace 0
set -u
if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -d lib ]; then
  echo "run.sh: not the root of a conferr checkout (dune-project, bin/, lib/ missing)" >&2
  exit 2
fi
# no shared dune cache: the build reads and writes inside the checkout only
DUNE_CACHE=disabled dune build --root . ./bin/main.exe ./bench/e2e/main.exe \
  ./bench/e2e/reference.exe >&2 || exit 2
exec ./_build/default/bench/e2e/main.exe "$@"
