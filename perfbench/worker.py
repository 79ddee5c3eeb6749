"""One pass of a perfbench workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload grid_check --seed 1 [--trace] [--quick]

A pass sends the workload's requests back to back from this one thread (a
spec through `build_kr`, the six check suites and the JSON and DOT exports,
or a `kr_dimension` query) and prints one JSON object: operation counts, the
timed phase, the slowest request, peak RSS and, with --trace, the per-layer
figures.  perfbench/run.py
starts one such process per pass, so `build_kr`'s cache and the lru_cache
tables start empty, as they do for every `kr` invocation.

Every output is checked against perfbench/expected.json, recorded from the
unmodified sources by perfbench/record.py.  A raised exception, a failing
report, a changed digest or answer, or a vertex count other than kr_dimension
counts as a failed operation, and the pass goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from krcrystals import cartan, cli, crystal_core, kr_builders, pm_diagrams, tableaux, verify
from krcrystals.cartan import FAMILIES, AffineSpec, Shape

import yardstick
from tracer import Tracer

EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("grid_check", "wide_build", "plan")

# Beyond the grid; promotion, dba, triples and spin routes, none with a host.
WIDE_SPECS = (
    ("A1", 6, 3, 3),
    ("B1", 4, 2, 3),
    ("D1", 5, 3, 2),
    ("A2odd", 5, 2, 3),
    ("C1", 5, 5, 2),
    ("D2", 4, 4, 5),
    ("D1", 5, 5, 5),
)

SUITE_CHECKS = {
    "regularity": "check_regularity",
    "decomp": "check_decompositions",
    "sigma": "check_sigma",
    "phi0": "check_phi0",
    "similarity": "check_similarity",
    "jlowest": "check_jlowest",
}
OPS_PER_SPEC = 1 + len(SUITE_CHECKS) + 3  # build, suites, report digest, JSON, DOT
ROUTE_KINDS = ("promotion", "dba", "virtual", "stepped", "triples", "spin")
PM_FUNCTIONS = ("phi", "phi_inverse", "involution_S", "enumerate_pm", "double_pm")
GRAPH_QUERIES = ("components", "decomposition", "isomorphisms", "raise_path", "highest_vertices")
SPIN_FUNCTIONS = ("spin_e", "spin_f", "spin_eps", "spin_phi")

OWN_SAMPLES = 20  # yardstick samples a spec needs to be scaled by its own

MICRO_SHAPE = Shape((2, 1))
MICRO_N = 4


def spec_key(spec: AffineSpec) -> str:
    return f"{spec.family} {spec.n} {spec.r} {spec.s}"


def plan_queries() -> list[AffineSpec]:
    """Every family, n = 4..7, every valid r, s = 1..6 (900 specs)."""
    return [
        AffineSpec(family, n, r, s)
        for family in FAMILIES
        for n in range(4, 8)
        for r in range(1, (n - 1 if family == "A1" else n) + 1)
        for s in range(1, 7)
    ]


def workload_specs(workload: str, seed: int, quick: bool = False) -> list[AffineSpec]:
    """The workload's specs in request order; quick keeps a cheap subset.

    The build workloads keep the fixed order `kr check` uses, whatever the
    seed: the build cache makes a pass's cost depend on it (a host built
    early stays alive for the rest of the pass), and a shuffled grid moved
    peak RSS by 9%.  Plan queries share nothing; the seed sets their order.
    """
    if workload == "grid_check":
        return list(verify.default_grid((2,), (1,)) if quick else verify.default_grid())
    if workload == "wide_build":
        return [AffineSpec(*args) for args in WIDE_SPECS[: 2 if quick else None]]
    if workload == "plan":
        queries = plan_queries()[: 90 if quick else None]
        random.Random(seed).shuffle(queries)
        return queries
    raise ValueError(f"unknown workload {workload!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def export_documents(build) -> tuple[str, str]:
    """The documents `kr build --format json` and `--format dot` write."""
    return json.dumps(cli.graph_document(build), indent=2) + "\n", cli.to_dot(build)


def reports_document(reports) -> str:
    """What `kr check --format json` writes for these reports."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


class Tally:
    """Operation counts and per-layer side figures of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.vertices = 0  # sum of kr_dimension over the requested specs
        self.suite_s = dict.fromkeys(SUITE_CHECKS, 0.0)
        self.failed_reports = 0
        self.export_bytes = 0

    def fail(self, count: int, spec: AffineSpec, why: str) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(f"{spec_key(spec)}: {why}")


def run_spec(spec, expected, tally, export) -> None:
    """build_kr, the six suites and both exports for one spec; never raises."""
    tally.attempted += OPS_PER_SPEC
    want = expected["specs"][spec_key(spec)]
    try:
        build = kr_builders.build_kr(spec)
    except Exception as exc:  # one broken spec must not stop the pass
        tally.fail(OPS_PER_SPEC, spec, f"build_kr raised {exc!r}")
        return
    dimension = cartan.kr_dimension(spec)
    tally.vertices += dimension
    if len(build.graph) != dimension:
        tally.fail(1, spec, f"|B| = {len(build.graph)}, kr_dimension = {dimension}")
    reports = []
    for suite, check in SUITE_CHECKS.items():
        try:
            report = getattr(verify, check)(build)
        except Exception as exc:
            tally.failed_reports += 1
            tally.fail(1, spec, f"{check} raised {exc!r}")
            continue
        reports.append(report)
        tally.suite_s[suite] += report.seconds
        if not report.passed:
            tally.failed_reports += 1
            tally.fail(1, spec, f"{suite} failed: {report.detail}")
    if sha256(reports_document(reports)) != want["reports"]:
        tally.fail(1, spec, "check reports differ from the recorded digest")
    try:
        doc, dot = export(build)
    except Exception as exc:
        tally.fail(2, spec, f"export raised {exc!r}")
        return
    tally.export_bytes += len(doc.encode()) + len(dot.encode())
    if sha256(doc) != want["json"]:
        tally.fail(1, spec, "JSON export differs from the recorded digest")
    if sha256(dot) != want["dot"]:
        tally.fail(1, spec, "DOT export differs from the recorded digest")


def run_query(spec, expected, tally, export) -> None:
    """One `kr dim` answer, checked against the recorded one; export is unused."""
    tally.attempted += 1
    try:
        dimension = cartan.kr_dimension(spec)
    except Exception as exc:
        tally.fail(1, spec, f"kr_dimension raised {exc!r}")
        return
    tally.vertices += dimension
    if dimension != expected["plan"][spec_key(spec)]:
        tally.fail(1, spec, f"kr_dimension = {dimension}, recorded {expected['plan'][spec_key(spec)]}")


def run_pass(workload, seed, expected, quick=False, export=export_documents) -> dict:
    """Send every request of the workload back to back; time each one.

    Each request is timed on the wall clock, less the yardstick blocks run
    inside it, and in blocks: that time over the mean block sampled while
    it ran, or over the pass's mean block when it ran too briefly for
    OWN_SAMPLES samples.
    """
    step = run_query if workload == "plan" else run_spec
    tally = Tally()
    timed = []  # per request: (seconds less blocks, first sample, end sample)
    with yardstick.Sampler() as stick:
        for spec in workload_specs(workload, seed, quick):
            first, spent = len(stick.samples), stick.spent_s
            sent = time.perf_counter()
            step(spec, expected, tally, export)
            took = time.perf_counter() - sent
            timed.append((took - (stick.spent_s - spent), first, len(stick.samples)))
    pass_block_s = stick.mean_block_s()
    blocks = [
        busy / (stick.mean_block_s(a, b) if b - a >= OWN_SAMPLES else pass_block_s)
        for busy, a, b in timed
    ]
    return {
        "tally": tally,
        "wall_s": sum(blocks) * yardstick.NOMINAL_BLOCK_S,
        "max_request_s": max(blocks) * yardstick.NOMINAL_BLOCK_S,
        "raw_wall_s": sum(busy for busy, _, _ in timed),
        "raw_max_request_s": max(busy for busy, _, _ in timed),
        "block_s": pass_block_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "requests": len(timed),
        "vertices": tally.vertices,
    }


def apply_us(seed: int, calls: int = 3000, repeats: int = 5) -> dict[str, float]:
    """Untraced microseconds per tableau_apply on a seeded (element, color, op) sample."""
    rng = random.Random(seed)
    out = {}
    for ctype in "ABCD":
        elements = list(tableaux.enumerate_tableaux(ctype, MICRO_N, MICRO_SHAPE))
        colors = list(range(1, MICRO_N if ctype == "A" else MICRO_N + 1))
        sample = [
            (rng.choice(elements), rng.choice(colors), rng.choice("ef"))
            for _ in range(calls)
        ]
        apply = tableaux.tableau_apply
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for elem, i, op in sample:
                apply(ctype, MICRO_N, elem, i, op)
            times.append(time.perf_counter() - start)
        out[f"{ctype}{MICRO_N}"] = statistics.median(times) / calls * 1e6
    return out


class BuildLedger:
    """What build_kr handed back: route self time, cache hits, host chains."""

    def __init__(self):
        self.route_self_s = dict.fromkeys(ROUTE_KINDS, 0.0)
        self.cache_hits = 0
        self.host_vertices = 0
        self._seen = {}  # id -> build; holding the builds keeps the ids unique
        self._hosts = {}

    def __call__(self, build, self_s):
        if id(build) in self._seen:
            self.cache_hits += 1
            return
        self.route_self_s[build.kind] += self_s
        for b in (build, build.partner):
            if b is not None:
                self._seen[id(b)] = b
        link = build.ambient
        while link is not None and id(link.build) not in self._hosts:
            self._hosts[id(link.build)] = link.build
            self.host_vertices += len(link.build.graph)
            link = link.build.ambient


class TracedRun:
    """Spans on every layer boundary the per-layer metrics read."""

    def __init__(self):
        self.tracer = Tracer()
        self.ledger = BuildLedger()
        self.closure_vertices = 0
        self.shapes = 0
        t = self.tracer
        t.install(tableaux, "tableau_apply", "tableaux.apply")
        for name in SPIN_FUNCTIONS:
            t.install(tableaux, name, "tableaux.spin")
        t.install(crystal_core, "generate_closure", "crystal_core.closure", self._closure)
        for name in GRAPH_QUERIES:
            setattr(
                crystal_core.CrystalGraph,
                name,
                t.wrap("crystal_core.query", getattr(crystal_core.CrystalGraph, name)),
            )
        for name in PM_FUNCTIONS:
            t.install(pm_diagrams, name, f"pm_diagrams.{name}")
        t.install(kr_builders, "build_kr", "kr_builders.build_kr", self.ledger)
        for suite, check in SUITE_CHECKS.items():
            t.install(verify, check, f"verify.{suite}")
        t.install(cartan, "kr_dimension", "cartan.dimension")
        t.install(cartan, "kr_decomposition", "cartan.decomposition", self._decomposition)
        self.export = t.wrap("cli.export", export_documents)

    def _closure(self, graph, self_s):
        self.closure_vertices += len(graph)

    def _decomposition(self, shapes, self_s):
        self.shapes += len(shapes)

    def layers(self, tally: Tally, requested_vertices: int) -> dict[str, float]:
        stats = self.tracer.stats
        closure = stats["crystal_core.closure"]
        out = {
            "tableaux.apply_calls": stats["tableaux.apply"].calls,
            "tableaux.apply_s": stats["tableaux.apply"].self_s,
            "tableaux.spin_calls": stats["tableaux.spin"].calls,
            "tableaux.spin_s": stats["tableaux.spin"].self_s,
            "crystal_core.closure_vertices": self.closure_vertices,
            "crystal_core.closure_self_s": closure.self_s,
            "crystal_core.vertices_per_s": (
                self.closure_vertices / closure.total_s if closure.total_s else 0.0
            ),
            "crystal_core.query_s": stats["crystal_core.query"].self_s,
            "kr_builders.host_vertices": self.ledger.host_vertices,
            "kr_builders.useful_ratio": (
                requested_vertices / self.closure_vertices if self.closure_vertices else 0.0
            ),
            "kr_builders.cache_hits": self.ledger.cache_hits,
            "pm_diagrams.s": sum(stats[f"pm_diagrams.{name}"].self_s for name in PM_FUNCTIONS),
            "verify.failed": tally.failed_reports,
            "cli.export_s": stats["cli.export"].total_s,
            "cli.export_bytes": tally.export_bytes,
            "cartan.dimension_s": stats["cartan.dimension"].self_s,
            "cartan.decomposition_s": stats["cartan.decomposition"].self_s,
            "cartan.shapes": self.shapes,
        }
        for kind, seconds in self.ledger.route_self_s.items():
            out[f"kr_builders.route_self_s.{kind}"] = seconds
        for name in PM_FUNCTIONS:
            out[f"pm_diagrams.{name}_calls"] = stats[f"pm_diagrams.{name}"].calls
        for suite, seconds in tally.suite_s.items():
            out[f"verify.{suite}_s"] = seconds
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    expected = json.loads(EXPECTED.read_text())
    if args.trace:
        micro = apply_us(args.seed)  # before any wrapper is installed
        traced = TracedRun()
        result = run_pass(args.workload, args.seed, expected, args.quick, traced.export)
        layers = traced.layers(result["tally"], result["vertices"])
        layers.update({f"tableaux.apply_us.{k}": v for k, v in micro.items()})
        result["layers"] = layers
    else:
        result = run_pass(args.workload, args.seed, expected, args.quick)
    del result["tally"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
