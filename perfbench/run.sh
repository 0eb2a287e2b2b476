#!/bin/sh
# Builds the benchmark and the daemon it drives from this checkout's
# sources, then runs it with the given arguments, e.g.
#   sh perfbench/run.sh --workload serve-hits --seed 1 --seconds 20 --trace 0
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project here; the benchmark needs the repository sources" >&2
  exit 2
fi
# No shared dune cache: build products stay inside the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/bench.exe ./bin/rentcost.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
