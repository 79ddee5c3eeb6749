"""Command-line front end: build, export, decompose, dim, and check.

Exit codes: 0 success, 1 a failed check or a refused or unfinished run (a
predicted size over the vertex bound, refused before any work, a dimension
query over the Q-system's work bound, a broken invariant, the closure bound, an
unwritable --out), 2 invalid arguments: a spec AffineSpec refuses, or check's
flags.  A ValueError raised once the arguments are read is a broken
invariant, and exits 1.
All output is deterministic; documents carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cartan import FAMILIES, AffineSpec, affine_pairing, kr_dimension
from .kr_builders import build_kr
from .verify import SUITES, default_grid, run_suite, second_subset


def _edges(graph):
    """Every arrow as (source, target, color), sorted."""
    return sorted((x, y, i) for i in graph.colors for x, y in graph.f[i].items())


def _labels(build):
    """Every vertex's element text, through one memo of part texts."""
    texts = {}
    return [build.render(elem, texts) for elem in build.graph.elements]


def graph_document(build) -> dict:
    """JSON-ready dict; node ids are the builder's breadth-first indices."""
    g = build.graph
    spec = build.spec
    nodes = [
        {"id": x, "element": label, "weight": list(wt)}
        for x, (label, wt) in enumerate(zip(_labels(build), g.weights))
    ]
    return {
        "family": spec.family,
        "n": spec.n,
        "r": spec.r,
        "s": spec.s,
        "nodes": nodes,
        "edges": [{"src": x, "dst": y, "color": i} for x, y, i in _edges(g)],
    }


def dump_graph_document(doc) -> str:
    """json.dumps(doc, indent=2) and a newline for graph_document's fixed shape, from %d
    and the C string encoder: any indent sends json.dumps to its pure-Python encoder."""
    text = json.encoder.encode_basestring_ascii

    def block(items, pad):  # a list as indent=2 lays it out at depth pad
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"

    node = '    {\n      "id": %d,\n      "element": %s,\n      "weight": %s\n    }'
    edge = '    {\n      "src": %d,\n      "dst": %d,\n      "color": %d\n    }'
    weights = [block(["        %d" % c for c in v["weight"]], "      ") for v in doc["nodes"]]
    nodes = [node % (v["id"], text(v["element"]), wt) for v, wt in zip(doc["nodes"], weights)]
    edges = [edge % (a["src"], a["dst"], a["color"]) for a in doc["edges"]]
    head = '{\n  "family": %s,\n  "n": %d,\n  "r": %d,\n  "s": %d,\n' % (
        text(doc["family"]), doc["n"], doc["r"], doc["s"]
    )
    return f'{head}  "nodes": {block(nodes, "  ")},\n  "edges": {block(edges, "  ")}\n}}\n'


def to_dot(build) -> str:
    spec = build.spec
    lines = [f'digraph "{spec.family} n={spec.n} r={spec.r} s={spec.s}" {{']
    lines += [f'  v{x} [label="{label}"];' for x, label in enumerate(_labels(build))]
    lines += [f'  v{x} -> v{y} [label="{i}"];' for x, y, i in _edges(build.graph)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fundamental_string(spec, subset, wt) -> str:
    """Weight as a sum of fundamental weights of the subset's colors."""
    terms = []
    for i in subset:
        c = affine_pairing(spec.family, spec.n, wt, i)
        if c:
            coeff = "" if c == 1 else str(c)
            terms.append(f"{coeff}Λ{i}")
    return "+".join(terms) if terms else "0"


def _specs(args) -> tuple[AffineSpec, ...]:
    """The one spec, or check's grid, read off the flags; ValueError on invalid arguments."""
    single = [args.family, args.n, args.r, args.s]
    if args.command != "check" or all(v is not None for v in single):
        return (AffineSpec(*single),)
    if any(v is not None for v in single):
        raise ValueError("check needs either all of --family/--n/--r/--s or none")
    if args.n_max < 2 or args.s_max < 1:
        raise ValueError("check needs --n-max at least 2 and --s-max at least 1")
    return default_grid(
        n_values=tuple(range(2, args.n_max + 1)), s_values=tuple(range(1, args.s_max + 1))
    )


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args, specs) -> int:
    build = build_kr(*specs)
    text = to_dot(build) if args.format == "dot" else dump_graph_document(graph_document(build))
    _write(text, args.out)
    return 0


def _cmd_decompose(args, specs) -> int:
    [spec] = specs
    build = build_kr(spec)
    subset = spec.classical_colors if args.subset == "classical" else second_subset(spec)
    tops = build.graph.decomposition(subset)
    line = ", ".join(_fundamental_string(spec, subset, wt) for wt in reversed(tops))
    _write(line + "\n", args.out)
    return 0


def _cmd_dim(args, specs) -> int:
    _write(str(kr_dimension(*specs)) + "\n", args.out)
    return 0


def _cmd_check(args, specs) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    out = open(args.out, "w") if args.out else sys.stdout  # refused before any build
    reports = []
    try:
        for spec in specs:  # text: each spec's lines as soon as its suites finish
            start = time.perf_counter()
            done = run_suite((spec,), suites)
            if args.timings:  # the build's seconds, the spec's less its suites', then each suite's
                build = time.perf_counter() - start - sum(r.seconds for r in done)
                timed = [("build", build)] + [(r.suite, r.seconds) for r in done if r.suite in suites]
                head = f"{spec.family:<6} n={spec.n} r={spec.r} s={spec.s}"
                sys.stderr.write("".join(f"{name:<10} {head}  {t:.6f} s\n" for name, t in timed))
            if args.format == "text":
                out.write("".join(r.line() + "\n" for r in done))
                out.flush()
            reports += done
        if args.format == "json":
            out.write(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0 if all(r.passed for r in reports) else 1


def _add_spec_flags(parser, required=True):
    parser.add_argument("--family", choices=FAMILIES, required=required)
    parser.add_argument("--n", type=int, required=required)
    parser.add_argument("--r", type=int, required=required)
    parser.add_argument("--s", type=int, required=required)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a crystal and export it")
    _add_spec_flags(p_build)
    p_build.add_argument("--format", choices=("json", "dot"), default="json")
    p_build.add_argument("--out")
    p_build.set_defaults(func=_cmd_build)

    p_dec = sub.add_parser("decompose", help="print component highest weights")
    _add_spec_flags(p_dec)
    p_dec.add_argument("--subset", choices=("classical", "zero"), default="classical")
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=_cmd_decompose)

    p_dim = sub.add_parser("dim", help="print the vertex count")
    _add_spec_flags(p_dim)
    p_dim.add_argument("--out")
    p_dim.set_defaults(func=_cmd_dim)

    p_check = sub.add_parser("check", help="run verification suites")
    _add_spec_flags(p_check, required=False)
    p_check.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_check.add_argument("--n-max", type=int, default=3)
    p_check.add_argument("--s-max", type=int, default=2)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--out")
    p_check.add_argument(
        "--timings", action="store_true", help="write each spec's build and suite seconds to stderr"
    )
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        specs = _specs(args)
    except ValueError as exc:  # invalid arguments: the one way to exit 2
        print(f"kr: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, specs)
    except (ValueError, RuntimeError, OSError) as exc:  # a ValueError here is a broken invariant
        print(f"kr: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
