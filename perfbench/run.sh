#!/usr/bin/env bash
# Build the optsample daemon and the benchmark program from source, then
# run one benchmark workload:
#
#   bash perfbench/run.sh --workload ingest|query|offline \
#     --seed N --seconds S --trace 0|1
#
# Human-readable lines go to stdout first; the last stdout line is the
# JSON result. Build output goes to stderr. Fails (exit 2) when run
# outside an optsample source tree.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 2

if [ ! -f dune-project ] || [ ! -d lib/server ] || [ ! -f bin/dune ]; then
  echo "perfbench: $root is not an optsample source tree" >&2
  exit 2
fi

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled

if ! dune build --root . ./perfbench/bench.exe ./bin/optsample.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi

exec ./_build/default/perfbench/bench.exe "$@"
