"""|B|, `build_kr` seconds, peak RSS and retained memory of single builds, each in a fresh
interpreter.

    python3 scripts/build_cost.py FAMILY,n,r,s [FAMILY,n,r,s ...]

For each spec a child interpreter imports the package from this checkout's
`src/`, times one `build_kr` call with `time.perf_counter`, and reports the
vertex count and its own peak resident set size (`ru_maxrss`, so the
interpreter and the imports are included).  It then drops that build and
builds the spec again under `tracemalloc`: `retained_mb` is the traced size
still held once the second build has returned, the build itself and what it
keeps (decimal MB).  A fresh child per spec keeps one
build's memory and caches out of the next one's numbers.  A spec whose build
raises prints its error's last line below the table, and the exit status is 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, resource, sys, time, tracemalloc
from krcrystals.cartan import AffineSpec
from krcrystals.kr_builders import build_kr
spec = AffineSpec(sys.argv[1], *map(int, sys.argv[2:]))
start = time.perf_counter()
build = build_kr(spec)
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
size = len(build.graph)
del build
tracemalloc.start()
build = build_kr(spec)
retained_mb = tracemalloc.get_traced_memory()[0] / 1e6
print(json.dumps([size, seconds, rss_mb, retained_mb]))
"""


def cost(fam: str, n: int, r: int, s: int) -> list[str]:
    """The spec's cells: |B|, seconds, peak RSS and retained memory in MB.  RuntimeError
    with the child's last stderr line if it fails."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, fam, str(n), str(r), str(s)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    if child.returncode:
        raise RuntimeError(child.stderr.strip().splitlines()[-1])
    size, seconds, rss_mb, retained_mb = json.loads(child.stdout)
    return [str(size), f"{seconds:.3f}", f"{rss_mb:.0f}", f"{retained_mb:.1f}"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        sys.exit(__doc__.split("\n\n")[1])
    rows, errors = [["spec", "|B|", "build_s", "peak_rss_mb", "retained_mb"]], []
    for fam, *rest in (arg.split(",") for arg in args):
        n, r, s = map(int, rest)
        try:
            rows.append([f"{fam} {n},{r},{s}", *cost(fam, n, r, s)])
        except RuntimeError as exc:
            errors.append(f"{fam} {n},{r},{s}: {exc}")
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        print("  ".join(cells))
    for line in errors:
        print(line)
    return int(bool(errors))


if __name__ == "__main__":
    sys.exit(main())
