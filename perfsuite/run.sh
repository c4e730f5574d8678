#!/bin/sh
# Build the suite from source and run it from the repository root:
#   sh perfsuite/run.sh --workload repair-corpus --seed 1 --seconds 10 --trace 0
# Arguments pass through to main.exe (see README.md). The build fails,
# and so does this script, outside a checkout of the repository.
set -e
cd "$(dirname "$0")/.."
# dune's shared cache lives outside the checkout; keep every write inside
DUNE_CACHE=disabled dune build --root . --display quiet ./perfsuite/main.exe 1>&2
exec ./_build/default/perfsuite/main.exe "$@"
