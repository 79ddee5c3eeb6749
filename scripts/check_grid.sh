#!/bin/sh
# Run every verification suite over the default grid, from a checkout (no
# install needed).  Extra flags pass through, e.g.
#   scripts/check_grid.sh --n-max 4 --s-max 3 --format json
root=$(cd "$(dirname "$0")/.." && pwd)
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" exec python3 -m krcrystals.cli check "$@"
