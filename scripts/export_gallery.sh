#!/bin/sh
# Export one small crystal per family under out/, as JSON and DOT, from a
# checkout (no install needed).
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p out
for spec in "A1 3 2 1" "B1 2 1 1" "C1 2 1 1" "D1 4 1 1" \
            "A2even 2 1 1" "A2odd 2 1 2" "D2 2 2 1"; do
  set -- $spec
  base="out/${1}_n${2}_r${3}_s${4}"
  python3 -m krcrystals.cli build --family "$1" --n "$2" --r "$3" --s "$4" --out "$base.json"
  python3 -m krcrystals.cli build --family "$1" --n "$2" --r "$3" --s "$4" --format dot --out "$base.dot"
done
echo "wrote $(ls out | wc -l) files to out/"
