"""Compare the outputs of a committed revision with the working tree's.

    python3 scripts/same_output.py --rev HEAD~1

The committed tree of --rev is unpacked with `git archive` into a temporary
directory (tempfile's default).  One child interpreter per tree runs, for
every spec below, `kr build` (JSON and DOT), `kr check --format json` and
`kr dim` through `cli.main`, and `kr decompose` with both subsets on the
grid specs (528 commands on 100 specs), then `kr dim` on ten high-rank specs
and `kr build` on five specs it refuses over the vertex bound (543 commands
in all), and reports the exit code and the sha256 of stdout and stderr of
each.  Every command whose record differs is printed, then the non-blank
`src/` line count of both trees; the exit status is 1 on any difference or
child failure, else 0.

The specs are the default `kr check` grid, the seven `wide_build` specs of
perfbench/worker.py, and specs beyond both on every route.  The high-rank
dimensions and the refusals' exact sizes are integers of up to 514 digits,
where a change to the Q-system table would show first.  `B1` 10,10,9 and
11,11,10 run `B1` at r = n, where the short node leads the table.  `C1`
6,5,2 (143,143 vertices) is refused for its `A2odd` 7,5,2 host alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, src_lines, unpack

sys.path.insert(0, str(ROOT / "src"))
from krcrystals.verify import default_grid  # noqa: E402

EXTRA_SPECS = (
    # the wide_build workload
    ("A1", 6, 3, 3), ("B1", 4, 2, 3), ("D1", 5, 3, 2), ("A2odd", 5, 2, 3),
    ("C1", 5, 5, 2), ("D2", 4, 4, 5), ("D1", 5, 5, 5),
    # past the grid
    ("A2even", 3, 3, 3), ("D2", 4, 3, 2), ("C1", 4, 3, 2), ("C1", 4, 4, 3),
    ("D2", 3, 3, 4), ("D1", 4, 4, 3), ("D1", 5, 4, 3), ("D1", 6, 6, 2),
    ("A2even", 4, 2, 2), ("A2even", 4, 3, 1), ("A2even", 2, 1, 4), ("D2", 4, 2, 2),
    ("D2", 2, 1, 4), ("B1", 4, 4, 3), ("B1", 3, 3, 4), ("D1", 6, 5, 3), ("D1", 5, 4, 4),
    ("A1", 4, 2, 3), ("A1", 5, 2, 2), ("B1", 5, 3, 2), ("A2odd", 4, 3, 2), ("D1", 6, 3, 2),
    ("C1", 3, 3, 4), ("D2", 4, 4, 3), ("D1", 5, 5, 4), ("D1", 6, 5, 2),
    # promotion with no color to carry it along, one color, and three
    ("A1", 2, 1, 5), ("A1", 3, 2, 4), ("A1", 7, 3, 3),
)
DIM_ONLY = (("A2even", 11, 11, 11), ("D2", 12, 11, 12), ("B1", 10, 8, 8), ("C1", 10, 9, 10),
            ("D1", 10, 8, 8), ("B1", 10, 10, 9), ("B1", 11, 11, 10),
            ("D1", 40, 30, 40), ("B1", 30, 20, 30), ("C1", 30, 20, 30))
REFUSED = (("A2odd", 7, 5, 2), ("A1", 12, 6, 3), ("A2even", 12, 12, 12), ("B1", 5, 4, 4),
           ("C1", 6, 5, 2))

# Runs in each tree: reads the argv lists on stdin, writes {command: record}.
CHILD = """
import contextlib, hashlib, io, json, sys
from krcrystals import cli
out = {"module": cli.__file__}
for argv in json.load(sys.stdin):
    streams = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        code = cli.main(argv)
    digests = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in streams]
    out["kr " + " ".join(argv)] = [code, *digests]
json.dump(out, sys.stdout)
"""


def commands() -> list[list[str]]:
    grid = [(s.family, s.n, s.r, s.s) for s in default_grid()]

    def spec(family, n, r, s):
        return ["--family", family, "--n", str(n), "--r", str(r), "--s", str(s)]

    out = []
    for key in grid + list(EXTRA_SPECS):
        out += [["build", *spec(*key)], ["build", *spec(*key), "--format", "dot"]]
        out += [["check", *spec(*key), "--format", "json"], ["dim", *spec(*key)]]
        if key in grid:
            out += [["decompose", *spec(*key), "--subset", subset] for subset in ("classical", "zero")]
    out += [["dim", *spec(*key)] for key in DIM_ONLY]
    return out + [["build", *spec(*key)] for key in REFUSED]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="the revision to compare against")
    args = parser.parse_args(argv)
    todo = json.dumps(commands())
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        sha = unpack(args.rev, roots["parent"])
        lines = {side: src_lines(root) for side, root in roots.items()}
        children = {
            side: subprocess.Popen(
                [sys.executable, "-c", CHILD],
                cwd=root,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for side, root in roots.items()
        }
        records, failed = {}, False
        for side, child in children.items():
            out, err = child.communicate(todo)
            if child.returncode:
                print(f"{side} child exited {child.returncode}:\n{err}", file=sys.stderr)
                failed = True
                continue
            records[side] = json.loads(out)
            module = Path(records[side].pop("module"))
            if not module.is_relative_to(roots[side]):
                print(f"{side} child imported {module}, outside its tree", file=sys.stderr)
                failed = True
    if failed:
        return 1
    mismatches = [c for c in records["parent"] if records["parent"][c] != records["change"].get(c)]
    for command in mismatches:
        print(f"MISMATCH {command}: {records['parent'][command]} != "
              f"{records['change'].get(command)}")
    print(f"{len(records['parent']) - len(mismatches)} of {len(records['parent'])} "
          f"outputs identical to {sha[:12]}")
    print(f"non-blank src/ lines: {lines['parent']} at {sha[:12]}, "
          f"{lines['change']} in the working tree")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
