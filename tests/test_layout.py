"""Layout guards on src/: builds own their state, src/ holds no test-only code,
imports no name it leaves unused, reads no field kept for the benchmark
alone, attaches f_0 to a closed crystal in one function, called by the one
builder of the closed routes, reads every parameter it takes, and start-up
loads no costly standard module.

The first guards read the sources with `ast`, so they run without importing
the package.  A module-level cache outlives the build that filled it, and a
top-level definition or method that nothing in src/ or perfbench/ names is
called only by tests; such code belongs in tests/oracles.py.  Counting names
misses a method whose name another class's method shares, so one guard also
runs the `kr` commands and lists the definitions they never enter.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "krcrystals").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))

CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _is_empty_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def _names(node, bare=True):
    """Counts of the identifiers node names: attributes, strings, and if bare names and imports.

    Strings count because perfbench reaches functions through getattr.  A
    method is reached through an attribute, so a variable of its name is no
    caller.
    """
    out = Counter()
    for here in ast.walk(node):
        if isinstance(here, ast.Name) and bare:
            out[here.id] += 1
        elif isinstance(here, ast.Attribute):
            out[here.attr] += 1
        elif isinstance(here, ast.alias) and bare:
            out[here.name.split(".")[-1]] += 1
        elif isinstance(here, ast.Constant) and isinstance(here.value, str):
            if here.value.isidentifier():
                out[here.value] += 1
    return out


def test_src_has_no_module_level_caches():
    found = []
    for path in SRC:
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    if _decorator_name(dec) in CACHE_DECORATORS:
                        found.append(f"{path.name}: @{_decorator_name(dec)} on {node.name}")
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if value is not None and _is_empty_container(value):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def _orphans(definitions, bare=True):
    """Definitions (path, label, node) whose name nothing in src/ or perfbench/ uses.

    A definition that only names itself (recursion) has no caller.
    """
    trees = {path: _tree(path) for path in CALLERS}
    named = sum((_names(tree, bare) for tree in trees.values()), Counter())
    return [
        f"{path.name}: {label}"
        for path, label, node in definitions(trees)
        if named[node.name] - _names(node, bare)[node.name] == 0
    ]


def test_every_top_level_definition_has_a_caller_outside_tests():
    def top_level(trees):
        for path in SRC:
            for node in trees[path].body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield path, node.name, node

    assert _orphans(top_level) == []


def test_every_method_has_a_caller_outside_tests():
    # dunders are called by the language, not by name
    def methods(trees):
        for path in SRC:
            for cls in trees[path].body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    if is_def and not node.name.startswith("__"):
                        yield path, f"{cls.name}.{node.name}", node

    assert _orphans(methods, bare=False) == []


def test_every_imported_name_is_used():
    # every name a module imports is read in it; the package's __all__ reads
    # the names it re-exports, and a __future__ import binds no name
    found = []
    for path in SRC:
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
            if targets == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_src_reads_no_field_kept_for_the_benchmark_ledger():
    # KRBuild.kind, ambient and partner stay for perfbench's build ledger
    # alone; src/ asks route(spec) for the route, and a suite that read
    # ambient would check a fixed-point build against the closed host its
    # arrows were read off
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SRC
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr in ("kind", "ambient", "partner")
        and isinstance(node.ctx, ast.Load)
    ]
    assert found == []



def test_one_function_attaches_f0_to_a_closed_crystal():
    # every closed route hands its rule on the tops to _attach_from_tops,
    # which carries it, checks it against its inverse and attaches f_0; no
    # route grows an f_0 ending of its own
    found = [
        f"{path.name}: {func.name}"
        for path in SRC
        for func in ast.walk(_tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_color"
    ]
    assert found == ["kr_builders.py: _attach_from_tops"]


def test_one_builder_for_the_closed_routes():
    # _build_from_tops is the one caller of _attach_from_tops, and each route
    # is a row of exactly one of the two tables: a rule on the tops
    # (_TOP_RULES) or a host builder (_BUILDERS), so no closed route grows a
    # builder of its own
    from krcrystals import kr_builders
    from krcrystals.verify import default_grid

    callers = [
        f"{path.name}: {func.name}"
        for path in SRC
        for func in ast.walk(_tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_attach_from_tops"
    ]
    assert callers == ["kr_builders.py: _build_from_tops"]
    routes = {kr_builders.route(spec) for spec in default_grid(range(2, 6), range(1, 4))}
    rules, builders = set(kr_builders._TOP_RULES), set(kr_builders._BUILDERS)
    assert len(routes) == 6
    assert rules | builders == routes and not rules & builders


def test_every_parameter_is_read():
    # a parameter no body reads is a dead argument every caller still passes
    found = []
    for path in SRC:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                here.id
                for stmt in body
                for here in ast.walk(stmt)
                if isinstance(here, ast.Name) and isinstance(here.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            found += [
                f"{path.name}: {name}({p.arg})"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
            ]
    assert found == []


def test_importing_the_cli_loads_no_costly_module():
    # every `kr` run pays for its imports: dataclasses pulls in inspect, ast,
    # dis and tokenize, and typing costs milliseconds more; -S keeps site
    # hooks, which may import typing themselves, out of the probe
    probe = "import krcrystals.cli, sys; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert {"dataclasses", "inspect", "typing"} & set(done.stdout.split()) == set()


# the `kr` traffic of the guard below: the JSON check of the default grid,
# every other command on one spec, and a build on the spin route, the one
# route that renders its elements as spin tensors
SPEC = ["--family", "B1", "--n", "2", "--r", "2", "--s", "1"]
TRAFFIC = [
    ["check", "--format", "json"],
    ["check", *SPEC],
    ["build", *SPEC],
    ["build", *SPEC, "--format", "dot"],
    ["decompose", *SPEC],
    ["decompose", *SPEC, "--subset", "zero"],
    ["dim", *SPEC],
    ["build", "--family", "D1", "--n", "4", "--r", "4", "--s", "1"],
]

# a call-only tracer (it returns None, so no line events) records the first
# line of every src/ code object entered while cli.main serves TRAFFIC
TRACED = """
import json, os, sys
from krcrystals import cli
prefix, entered = sys.argv[1], set()

def called(frame, event, arg):
    if frame.f_code.co_filename.startswith(prefix):
        entered.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.settrace(called)
codes = [cli.main([*argv, "--out", os.devnull]) for argv in json.loads(sys.argv[2])]
sys.settrace(None)
print(json.dumps([codes, sorted(entered)]))
"""


def _definitions(path):
    """(first line, dotted name) of every def in a module, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, prefix + child.name))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(_tree(path), path.stem + ".")
    return out


def test_kr_traffic_enters_every_definition_but_the_known_few():
    # tableau_apply, enumerate_tableaux and phi_inverse serve perfbench's
    # per-layer timings; Shape.__str__ and verify._w only failing reports
    # reach.  A subprocess keeps the tracer off any tracer of this run.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", TRACED, str(ROOT / "src" / "krcrystals"), json.dumps(TRAFFIC)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    codes, entered = json.loads(done.stdout)
    assert codes == [0] * len(TRAFFIC)
    entered = {tuple(pair) for pair in entered}
    never = [
        name
        for path in SRC
        for first, name in _definitions(path)
        if (path.name, first) not in entered
    ]
    assert sorted(never) == [
        "cartan.Shape.__str__",
        "pm_diagrams.phi_inverse",
        "tableaux.enumerate_tableaux",
        "tableaux.tableau_apply",
        "verify._w",
    ]
