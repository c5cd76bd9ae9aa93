#!/usr/bin/env bash
# Build the serve daemon and the benchmark from source, then run the
# benchmark pinned to one CPU: the client and the daemon share it, so
# cross-CPU placement adds no noise. Arguments go to perfbench.exe, e.g.
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./bin/cnfet_tool.exe ./perfbench/perfbench.exe >&2
exe=./_build/default/perfbench/perfbench.exe
if command -v taskset >/dev/null 2>&1 && cpus=$(taskset -cp $$ 2>/dev/null); then
  cpu=$(printf '%s\n' "${cpus##*: }" | tr ',-' '\n\n' | tail -n 1)
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
