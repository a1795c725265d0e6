#!/usr/bin/env bash
# Build the benchmark and the server from source, then run one workload:
#
#   bash perfbench/run.sh --workload oltp|mixed|olap|sim --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr; the last line
# of stdout is the JSON result.  Everything the run writes stays under the
# current directory (_build/ and .perfbench/).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an mrdb source tree (no dune-project, lib/ or bin/ here)" >&2
  exit 1
fi

DUNE=dune
if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    DUNE="opam exec -- dune"
  else
    echo "perfbench: dune not found" >&2
    exit 1
  fi
fi

# No shared build cache outside this tree.
export DUNE_CACHE=disabled
$DUNE build --root . --display quiet ./perfbench/perfbench.exe ./bin/mrdb_server.exe 1>&2

mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
export PERFBENCH_SERVER="$PWD/_build/default/bin/mrdb_server.exe"
exec ./_build/default/perfbench/perfbench.exe "$@"
