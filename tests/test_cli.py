"""CLI surface: document export, decomposition strings, suites, exit codes."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from krcrystals.cartan import AffineSpec, Shape, kr_dimension, weyl_dimension
from krcrystals.cli import dump_graph_document, graph_document, main, to_dot
from krcrystals.kr_builders import build_kr
from krcrystals.verify import SUITES, CheckReport, default_grid

from conftest import TimeLimitExceeded
from oracles import PINNED_DIMENSIONS, load_graph_document, weyl_sum

ROUND_TRIP_SPECS = [
    ("A1", 2, 1, 2),
    ("B1", 2, 2, 1),
    ("C1", 2, 1, 1),
    ("D1", 4, 4, 1),
    ("A2even", 2, 1, 1),
    ("A2odd", 2, 1, 1),
    ("D2", 2, 2, 1),
]


def test_document_matches_known_four_node_crystal():
    build = build_kr(AffineSpec("C1", 2, 1, 1))
    doc = graph_document(build)
    assert [node["id"] for node in doc["nodes"]] == [0, 1, 2, 3]
    assert all(len(node["weight"]) == 2 for node in doc["nodes"])
    keys = [(e["src"], e["dst"], e["color"]) for e in doc["edges"]]
    assert keys == sorted(keys)
    assert {e["color"] for e in doc["edges"]} == {0, 1, 2}


@pytest.mark.parametrize("family, n, r, s", ROUND_TRIP_SPECS)
def test_document_round_trip_is_identity(family, n, r, s):
    build = build_kr(AffineSpec(family, n, r, s))
    doc = json.loads(json.dumps(graph_document(build)))
    rebuilt = load_graph_document(doc)
    assert rebuilt.f == build.graph.f
    assert rebuilt.weights == list(build.graph.weights)
    ident = {x: x for x in range(len(build.graph))}
    colors = build.graph.colors
    assert ident in build.graph.isomorphisms(rebuilt, {i: i for i in colors}, colors)


@pytest.mark.parametrize("spec", default_grid(), ids=str)
def test_graph_document_text_is_indented_json(spec):
    doc = graph_document(build_kr(spec))
    assert dump_graph_document(doc) == json.dumps(doc, indent=2) + "\n"


def test_graph_document_text_escapes_like_json():
    # non-ASCII, quotes, backslashes and control characters in the labels
    # and the family, and empty lists, come out as json.dumps writes them
    doc = graph_document(build_kr(AffineSpec("C1", 2, 1, 1)))
    labels = ["\u00e9t\u00e9 \u2603", 'say "hi"', "back\\slash\\", "tab\tnew\nline\x00"]
    for node, label in zip(doc["nodes"], labels):
        node["element"] = label
    doc["family"] = "\U0001d504\"/"
    doc["nodes"][0]["weight"] = []
    assert dump_graph_document(doc) == json.dumps(doc, indent=2) + "\n"
    doc["edges"] = []
    assert dump_graph_document(doc) == json.dumps(doc, indent=2) + "\n"
    assert json.loads(dump_graph_document(doc)) == doc


def test_dot_golden_two_cycle():
    build = build_kr(AffineSpec("A1", 2, 1, 1))
    assert to_dot(build) == (
        'digraph "A1 n=2 r=1 s=1" {\n'
        '  v0 [label="1"];\n'
        '  v1 [label="2"];\n'
        '  v0 -> v1 [label="1"];\n'
        '  v1 -> v0 [label="0"];\n'
        "}\n"
    )


def test_build_output_is_byte_stable(tmp_path):
    args = ["build", "--family", "D2", "--n", "2", "--r", "1", "--s", "2"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    json.loads(first.read_text())


@pytest.mark.parametrize(
    "family, n, r, s, subset, line",
    [
        ("A2even", 2, 1, 1, "classical", "Λ1, 0"),
        ("C1", 3, 2, 2, "classical", "2Λ2, 2Λ1, 0"),
        ("B1", 2, 1, 2, "classical", "2Λ1"),
        ("A2even", 2, 1, 1, "zero", "Λ1"),
    ],
)
def test_decompose_prints_highest_weights(capsys, family, n, r, s, subset, line):
    args = ["decompose", "--family", family, "--n", str(n), "--r", str(r),
            "--s", str(s), "--subset", subset]
    assert main(args) == 0
    assert capsys.readouterr().out == line + "\n"


def test_dim_prints_vertex_count(capsys):
    assert main(["dim", "--family", "C1", "--n", "2", "--r", "1", "--s", "1"]) == 0
    assert main(["dim", "--family", "A1", "--n", "3", "--r", "2", "--s", "1"]) == 0
    assert capsys.readouterr().out == "4\n3\n"


def test_check_single_spec_prints_one_line_per_suite(capsys):
    args = ["check", "--family", "B1", "--n", "2", "--r", "2", "--s", "1"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all("PASS" in line for line in lines)


def test_check_grid_covers_every_family(capsys):
    assert main(["check", "--n-max", "2", "--s-max", "1"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 90
    for family in ("A1", "B1", "C1", "D1", "A2even", "A2odd", "D2"):
        assert family in out


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_check_text_streams_each_spec(tmp_path, capsys, monkeypatch, to_file):
    # what the output held when the second spec's build began: the first
    # spec's six lines, flushed
    from krcrystals import verify

    target = tmp_path / "check.txt"
    builds, held = [], []

    def build(spec):
        builds.append(spec)
        if len(builds) == 2:
            held.append(target.read_text() if to_file else capsys.readouterr().out)
        return build_kr(spec)

    monkeypatch.setattr(verify, "build_kr", build)
    args = ["check", "--n-max", "2", "--s-max", "1"] + ["--out", str(target)] * to_file
    assert main(args) == 0
    lines = held[0].splitlines()
    assert [line.split()[0] for line in lines] == list(SUITES)
    assert all(line.split()[1:5] == ["A1", "n=2", "r=1", "s=1"] for line in lines)
    rest = target.read_text()[len(held[0]):] if to_file else capsys.readouterr().out
    assert len(rest.splitlines()) == 84


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spec", [AffineSpec("A1", 2, 1, 2), AffineSpec("D2", 2, 2, 1)], ids=str)
def test_check_timings_go_to_stderr_only(capsys, fmt, spec):
    # stdout is byte-identical with and without --timings; stderr gets the
    # build's seconds, then each suite's, one line each
    flags = ["--family", spec.family, "--n", str(spec.n), "--r", str(spec.r), "--s", str(spec.s)]
    assert main(["check", *flags, "--format", fmt]) == 0
    plain = capsys.readouterr()
    assert main(["check", *flags, "--format", fmt, "--timings"]) == 0
    timed = capsys.readouterr()
    assert (timed.out, plain.err) == (plain.out, "")
    head = [spec.family, f"n={spec.n}", f"r={spec.r}", f"s={spec.s}"]
    lines = [line.split() for line in timed.err.splitlines()]
    assert [fields[0] for fields in lines] == ["build", *SUITES]
    assert all(fields[1:5] == head and fields[6] == "s" and float(fields[5]) >= 0 for fields in lines)


def test_check_timings_of_a_refused_build(capsys, time_limit):
    # the refused build's own line, once; its failing report goes to stdout
    args = ["check", "--family", "A1", "--n", "12", "--r", "6", "--s", "3", "--timings"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("build      A1     n=12 r=6 s=3  FAIL")
    [line] = captured.err.splitlines()
    assert line.startswith("build      A1     n=12 r=6 s=3  ") and line.endswith(" s")


@pytest.mark.parametrize("flags", [["--s-max", "0"], ["--n-max", "1"]])
def test_check_refuses_an_empty_grid(capsys, flags):
    assert main(["check", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kr: check needs --n-max")


def test_check_n_max_bounds_every_family(monkeypatch):
    import krcrystals.cli as cli

    asked = []

    def recorded(specs, suites):  # check asks for one spec at a time
        asked[-1].extend(specs)
        return []

    monkeypatch.setattr(cli, "run_suite", recorded)
    for argv in (["check"], ["check", "--n-max", "5", "--s-max", "1"]):
        asked.append([])
        assert cli.main(argv) == 0
    default, wide = asked
    assert len(default) == 64
    assert {spec.n for spec in default if spec.family == "D1"} == {4}
    assert {spec.n for spec in wide if spec.family == "D1"} == {4, 5}
    assert max(spec.n for spec in wide) == 5


def test_check_json_report_is_structured(capsys):
    args = ["check", "--family", "A1", "--n", "2", "--r", "1", "--s", "1",
            "--format", "json"]
    assert main(args) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 6
    for report in reports:
        assert report["passed"] is True
        assert set(report) >= {"suite", "family", "n", "r", "s", "detail"}


def test_failed_check_exits_one(capsys, monkeypatch):
    import krcrystals.cli as cli

    spec = AffineSpec("A1", 2, 1, 1)
    broken = CheckReport("regularity", spec, False, "forced failure")
    monkeypatch.setattr(cli, "run_suite", lambda specs, suites: [broken])
    args = ["check", "--family", "A1", "--n", "2", "--r", "1", "--s", "1"]
    assert cli.main(args) == 1
    assert "FAIL" in capsys.readouterr().out


def test_failed_build_becomes_a_report(capsys, monkeypatch):
    from krcrystals import kr_builders, verify

    def broken(spec):  # every stepped spec gets the 2-vertex B^{1,1} of A1 n=2
        return kr_builders.build_kr(AffineSpec("A1", 2, 1, 1))

    monkeypatch.setitem(kr_builders._BUILDERS, "stepped", broken)
    args = ["check", "--family", "B1", "--n", "2", "--r", "2", "--s", "1"]
    assert main(args) == 1
    assert capsys.readouterr().out == (
        "build      B1     n=2 r=2 s=1  FAIL"
        "  [error: build has 2 vertices, kr_dimension gives 4]\n"
    )
    specs = [AffineSpec("A2even", 2, 1, 1), AffineSpec("A1", 2, 1, 1)]
    reports = verify.run_suite(specs)
    assert [(r.suite, r.spec, r.passed) for r in reports[:1]] == [
        ("build", specs[0], False)
    ]
    assert [r.suite for r in reports[1:]] == list(verify.SUITES)
    assert all(r.passed for r in reports[1:])


@pytest.mark.parametrize("command", ["build", "decompose"])
def test_build_that_raises_exits_one(capsys, monkeypatch, command):
    import krcrystals.cli as cli

    def broken(spec):
        raise RuntimeError("crystal closure exceeded 1000000 vertices")

    monkeypatch.setattr(cli, "build_kr", broken)
    args = [command, "--family", "A1", "--n", "2", "--r", "1", "--s", "1"]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kr: crystal closure exceeded 1000000 vertices\n"


def test_over_bound_build_is_refused_before_work(capsys, time_limit):
    assert weyl_sum(AffineSpec("A1", 12, 6, 3)) == 24293412  # one rectangle
    message = "A1 n=12 r=6 s=3 would have 24293412 vertices, over the bound 1000000"
    with pytest.raises(RuntimeError) as caught:
        build_kr(AffineSpec("A1", 12, 6, 3))
    assert str(caught.value) == message
    for command in ("build", "decompose"):
        args = [command, "--family", "A1", "--n", "12", "--r", "6", "--s", "3"]
        assert main(args) == 1
        assert capsys.readouterr().err == f"kr: {message}\n"
    args = ["check", "--family", "A1", "--n", "12", "--r", "6", "--s", "3"]
    assert main(args) == 1
    assert capsys.readouterr().out == (
        f"build      A1     n=12 r=6 s=3  FAIL  [error: {message}]\n"
    )


def test_a_huge_box_is_refused_at_once(capsys, time_limit):
    # the Q-system's exact count; the Weyl sum over the box's C(24, 12) shapes
    # would take minutes
    size = 4205446372314569673006362329181090368935937500000000
    message = f"A2even n=12 r=12 s=12 would have {size} vertices, over the bound 1000000"
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as caught:
        build_kr(AffineSpec("A2even", 12, 12, 12))
    assert time.perf_counter() - start < 1
    assert str(caught.value) == message
    start = time.perf_counter()
    assert main(["build", "--family", "A2even", "--n", "12", "--r", "12", "--s", "12"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"kr: {message}\n"


def test_stepped_build_seeds_fix_the_node_order(capsys):
    args = ["build", "--family", "A2even", "--n", "2", "--r", "1", "--s", "1"]
    assert main(args) == 0
    nodes = json.loads(capsys.readouterr().out)["nodes"]
    assert [node["element"] for node in nodes[:2]] == ["1|-1", "2|2"]


def test_invalid_spec_exits_two(capsys):
    args = ["check", "--family", "C1", "--n", "2", "--r", "9", "--s", "1"]
    assert main(args) == 2
    assert "out of range" in capsys.readouterr().err


def test_partial_check_spec_exits_two(capsys):
    assert main(["check", "--family", "A1"]) == 2
    assert "all of" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "decompose", "dim"])
def test_invalid_spec_of_a_single_spec_command_exits_two(capsys, command):
    assert main([command, "--family", "D1", "--n", "3", "--r", "1", "--s", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "kr: the D1 family needs rank at least 4\n")


@pytest.mark.parametrize("command,family", [("build", "B1"), ("decompose", "A2odd")])
def test_value_error_inside_the_work_exits_one(capsys, monkeypatch, command, family):
    # only the arguments exit 2; a ValueError once they are read is a broken invariant
    from krcrystals import pm_diagrams as pm

    def involution_S(P, r, s):
        raise ValueError(f"blocks at sign height 0 for r={r}")

    monkeypatch.setattr(pm, "involution_S", involution_S)
    assert main([command, "--family", family, "--n", "2", "--r", "1", "--s", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "kr: blocks at sign height 0 for r=1\n")


@pytest.mark.parametrize("family,n,r,s", sorted(PINNED_DIMENSIONS), ids=str)
def test_dim_answers_past_the_weyl_sums_reach(capsys, time_limit, family, n, r, s):
    # 1.2e13, 8.5e8 and 3.2e9 classical summands: one integer line
    assert main(["dim", "--family", family, "--n", str(n), "--r", str(r), "--s", str(s)]) == 0
    captured = capsys.readouterr()
    digits, digest = PINNED_DIMENSIONS[family, n, r, s]
    assert captured.err == "" and captured.out.endswith("\n") and captured.out[:-1].isdigit()
    assert len(captured.out) - 1 == digits
    assert hashlib.sha256(captured.out[:-1].encode()).hexdigest() == digest


@pytest.mark.parametrize("s,code", [(78, 0), (79, 1)])
def test_dim_at_the_work_bound(capsys, time_limit, s, code):
    # D1 80,40,78 is the last s the work bound lets through at that rank and
    # node; either way kr dim finishes within a second
    start = time.perf_counter()
    assert main(["dim", "--family", "D1", "--n", "80", "--r", "40", "--s", str(s)]) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    if code:
        head = "kr: D1 n=80 r=40 s=79 needs 1009743872000 units of Q-system work"
        assert (captured.out, captured.err) == ("", f"{head}, over the work bound 1000000000000\n")
    else:
        assert captured.err == "" and len(captured.out) == 1660 and captured.out[:-1].isdigit()


def test_a_time_limit_passes_through_kr_and_run_suite(monkeypatch):
    # time_limit's exception must fail the test where it fires: cli.main's
    # exit-1 handler and run_suite's failing report would hide a hang
    from krcrystals import cartan, verify

    def expire(*args):
        raise TimeLimitExceeded("still running after 10 s")

    monkeypatch.setattr(cartan, "_fundamental_dimensions", expire)
    monkeypatch.setattr(verify, "build_kr", expire)
    spec = ["--family", "B1", "--n", "2", "--r", "2", "--s", "1"]
    for argv in (["dim", *spec], ["check", *spec]):
        with pytest.raises(TimeLimitExceeded):
            main(argv)
    with pytest.raises(TimeLimitExceeded):
        verify.run_suite([AffineSpec("B1", 2, 2, 1)])


def test_large_c1_build_is_refused_with_its_size(capsys, time_limit):
    # 13,037,895 horizontal-domino shapes, none made: the exact count, past
    # the dimension of one of them, the r x s box
    spec = AffineSpec("C1", 22, 16, 22)
    size = kr_dimension(spec)
    assert len(str(size)) == 155 and size > weyl_dimension("C", 22, Shape((22,) * 16).weight(22))
    assert main(["build", "--family", "C1", "--n", "22", "--r", "16", "--s", "22"]) == 1
    captured = capsys.readouterr()
    message = f"C1 n=22 r=16 s=22 would have {size} vertices, over the bound 1000000"
    assert (captured.out, captured.err) == ("", f"kr: {message}\n")


def test_unknown_family_is_rejected_by_the_parser():
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--family", "E8", "--n", "2", "--r", "1", "--s", "1"])
    assert exc.value.code == 2


def test_out_flag_redirects_stdout(tmp_path, capsys):
    target = tmp_path / "dim.txt"
    args = ["dim", "--family", "C1", "--n", "2", "--r", "1", "--s", "1",
            "--out", str(target)]
    assert main(args) == 0
    assert target.read_text() == "4\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["build", "check"])
def test_out_to_a_missing_directory_exits_one(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.json"
    args = [command, "--family", "A1", "--n", "3", "--r", "1", "--s", "1",
            "--out", str(target)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kr: ") and str(target) in captured.err
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_out_to_a_missing_directory_exits_before_any_build(tmp_path, capsys, monkeypatch, fmt):
    # both formats open --out before the first build, so the grid never runs
    from krcrystals import verify

    builds = []
    monkeypatch.setattr(verify, "build_kr", builds.append)
    target = tmp_path / "missing" / "reports.json"
    assert main(["check", "--format", fmt, "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert builds == [] and captured.out == ""
    assert captured.err.startswith("kr: ") and str(target) in captured.err


@pytest.mark.parametrize(
    "spec,value",
    [
        (("A2even", 11, 11, 11), 36298820709557430183399305000196605531250000),
        (("D2", 12, 11, 12), 89377321050003588589082803229657241716025562500000000),
    ],
    ids=["A2even-11-11-11", "D2-12-11-12"],
)
def test_dim_of_a_huge_twisted_box_answers_at_once(spec, value, capsys, time_limit):
    # both values agree with the sum over every shape of the box
    family, n, r, s = spec
    assert main(["dim", "--family", family, "--n", str(n), "--r", str(r), "--s", str(s)]) == 0
    assert capsys.readouterr().out == f"{value}\n"


@pytest.fixture(scope="module")
def recorded():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    return json.loads(path.read_text())


def test_dimensions_match_the_recorded_plan_answers(recorded):
    # the 900 `kr dim` answers perfbench/record.py stored, every family
    answers = recorded["plan"]
    assert len(answers) == 900
    for key, value in answers.items():
        family, n, r, s = key.split()
        assert kr_dimension(AffineSpec(family, int(n), int(r), int(s))) == value, key


@pytest.mark.parametrize("spec", default_grid(), ids=str)
def test_outputs_match_the_recorded_digests(spec, recorded, capsys):
    # the sha256 of `kr build` (JSON and DOT) and `kr check --format json`,
    # as perfbench/record.py stored them
    flags = ["--family", spec.family, "--n", str(spec.n), "--r", str(spec.r), "--s", str(spec.s)]
    commands = {
        "json": ["build", *flags],
        "dot": ["build", *flags, "--format", "dot"],
        "reports": ["check", *flags, "--format", "json"],
    }
    got = {}
    for key, argv in commands.items():
        assert main(argv) == 0
        got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == recorded["specs"][f"{spec.family} {spec.n} {spec.r} {spec.s}"]
