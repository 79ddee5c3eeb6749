"""Signature passes, factor-row fetches and sigma table sizes of stepped builds.

    python3 scripts/pass_counts.py [FAMILY,n,r,s ...]

For each spec (by default the six below) this builds B^{r,s} with `build_kr`,
then runs the six check suites on that build in `verify.SUITES` order, as
`kr check` does.  Every signature pass is one `SignatureTable.string` call,
so the script counts those calls in the build and in each suite.  Next to
each pass count, after a `/`, it prints the factor-row fetches: the
`SignatureTable._rows` calls that read an element's factors afresh rather
than return the rows the table kept from its previous call.  It also
prints the size of the stepped host's sigma table (`_sigma`) after the
build, and after the suites (the `+` column); both are blank for a build on
another route.  The counts do not depend on the machine or the run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from krcrystals import tableaux  # noqa: E402
from krcrystals.cartan import AffineSpec  # noqa: E402
from krcrystals.kr_builders import build_kr  # noqa: E402
from krcrystals.verify import _CHECKS, SUITES  # noqa: E402

SPECS = (
    ("A2even", 3, 3, 2), ("D2", 3, 2, 2), ("A2even", 3, 3, 3), ("D2", 4, 3, 2),
    ("B1", 3, 3, 2), ("B1", 3, 3, 4),
)


def counts(spec: AffineSpec) -> list:
    """[build passes/fetches, each suite's passes/fetches, their sums, then the
    _sigma size after the build and after the suites]."""
    passes, fetches, kept = [0], [0], {}  # kept: table -> the rows it returned last
    string, rows = tableaux.SignatureTable.string, tableaux.SignatureTable._rows

    def counted(*args):
        passes[0] += 1
        return string(*args)

    def fetched(table, elem):
        out = rows(table, elem)
        if out is not kept.get(table):
            fetches[0] += 1
            kept[table] = out
        return out

    def size(host):
        return "" if host is None else len(host._sigma)

    tableaux.SignatureTable.string, tableaux.SignatureTable._rows = counted, fetched
    try:
        build = build_kr(spec)
        row, built = [(passes[0], fetches[0])], size(build.stepped)
        for name in SUITES:
            passes[0] = fetches[0] = 0
            if not _CHECKS[name](build).passed:
                raise RuntimeError(f"suite {name} failed on {spec}")
            row.append((passes[0], fetches[0]))
    finally:
        tableaux.SignatureTable.string, tableaux.SignatureTable._rows = string, rows
    row.append(tuple(map(sum, zip(*row[1:]))))
    return [f"{p}/{f}" for p, f in row] + [built, size(build.stepped)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    specs = SPECS
    if args:
        specs = [(fam, *map(int, rest)) for fam, *rest in (arg.split(",") for arg in args)]
    header = ["spec", "build", *SUITES, "suites", "_sigma", "_sigma+"]
    rows = [header]
    for fam, n, r, s in specs:
        rows.append([f"{fam} {n},{r},{s}", *map(str, counts(AffineSpec(fam, n, r, s)))])
    widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        print("  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
