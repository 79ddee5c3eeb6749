"""Record the outputs perfbench checks every pass against.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected.json: for every default-grid and wide_build spec the
sha256 of its `kr build` JSON and DOT documents and of its `kr check --format
json` report list, and the `kr dim` answer of every plan query.  Run it
only on sources whose outputs are known good; it refuses to record a failing
report or a vertex count that differs from kr_dimension.
"""

import json
import sys

from krcrystals import cartan, kr_builders, verify
from krcrystals.cartan import AffineSpec

from worker import (
    EXPECTED,
    SUITE_CHECKS,
    WIDE_SPECS,
    export_documents,
    plan_queries,
    reports_document,
    sha256,
    spec_key,
)


def main() -> int:
    expected = {"specs": {}, "plan": {}}
    for spec in verify.default_grid() + tuple(AffineSpec(*args) for args in WIDE_SPECS):
        build = kr_builders.build_kr(spec)
        if len(build.graph) != cartan.kr_dimension(spec):
            sys.exit(f"{spec_key(spec)}: |B| differs from kr_dimension")
        reports = [getattr(verify, check)(build) for check in SUITE_CHECKS.values()]
        failed = [r.suite for r in reports if not r.passed]
        if failed:
            sys.exit(f"{spec_key(spec)}: failing suites {failed}")
        doc, dot = export_documents(build)
        expected["specs"][spec_key(spec)] = {
            "json": sha256(doc),
            "dot": sha256(dot),
            "reports": sha256(reports_document(reports)),
        }
    for spec in plan_queries():
        expected["plan"][spec_key(spec)] = cartan.kr_dimension(spec)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
