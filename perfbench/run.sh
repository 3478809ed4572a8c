#!/usr/bin/env bash
# Build the koptnode daemon and the benchmark program from source, then run
# one benchmark workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-burst --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is the JSON
# result.  See perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . ./bin/koptnode.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --exe _build/default/bin/koptnode.exe "$@"
