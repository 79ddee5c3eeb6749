"""The krcrystals benchmark: one run of one workload.

    python3 perfbench/run.py --workload grid_check --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the program is imported from src/.
Workloads (see perfbench/README.md for why each exists):

    grid_check  `kr check` over default_grid(): 64 specs, six suites, both exports
    wide_build  the same per-spec pipeline on seven specs beyond the grid
    plan        900 `kr dim` queries in seeded order, nothing built

Each pass runs in a fresh interpreter (perfbench/worker.py), one client
sending requests back to back.  With --trace 0 the run makes passes until
--seconds is used up (at least one), times interpreter start plus
`import krcrystals` in separate processes, and reports the medians of the
end-to-end metrics.  Their times are in nominal seconds: measured against a
yardstick timed alongside (see perfbench/yardstick.py), which cancels the
drift in speed of a shared machine.  The raw wall-clock seconds are printed
too, as information.

With --trace 1 the run makes one untraced pass, which gives the end-to-end
metrics, and beside it, on the other core, one pass with spans on every
layer, which gives the per-layer metrics and the tracing overhead (traced
minus untraced wall_s; it carries the yardstick's error across cores, a few
percent of wall_s, and can read below zero when tracing costs less than
that).

Every metric is printed by name with its unit, then machine information, and
last one JSON line {"correct", "attempted", "failed", "metrics"} holding the
metrics BENCHMARK.json lists for the chosen --trace.  A failed operation
(exception, failing report, output that differs from the record) is counted,
not fatal; a run that cannot measure exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import NOMINAL_BLOCK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid_check", "wide_build", "plan")
SETUP_PROBES = 11
RUN_LIMIT_S = 170  # every run ends within 180 s; children are killed past this
PROBE = (
    "import krcrystals, time; t = time.monotonic(); "
    "import yardstick; print(t, yardstick.block_seconds(20))"
)
INFO_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "raw_max_request_s": "s"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def run_children(argvs: list[list[str]], deadline: float) -> list[str]:
    """Run Python children side by side to completion; their stdouts.

    Every child still running at the deadline is killed, and every child is
    waited for before this returns or raises.
    """
    procs = [
        subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for args in argvs
    ]
    try:
        outputs = [p.communicate(timeout=max(deadline - time.monotonic(), 1.0)) for p in procs]
    except subprocess.TimeoutExpired:
        raise BenchError("a child did not finish within the run limit") from None
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for args, p, (_, err) in zip(argvs, procs, outputs):
        if p.returncode != 0:
            raise BenchError(f"{args[0]} exited {p.returncode}:\n{err[-3000:]}")
    return [out for out, _ in outputs]


def run_child(args: list[str], deadline: float) -> str:
    return run_children([args], deadline)[0]


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median (nominal, raw) seconds from spawning an interpreter until
    krcrystals is imported; the probe times the yardstick right after."""
    run_child(["-c", PROBE], deadline)  # warms the file and bytecode caches
    nominal, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        imported, block_s = map(float, run_child(["-c", PROBE], deadline).split())
        raw.append(imported - start)
        nominal.append(raw[-1] / block_s * NOMINAL_BLOCK_S)
    return statistics.median(nominal), statistics.median(raw)


def pass_argv(args, trace: bool) -> list[str]:
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    return argv + ["--trace"] * trace + ["--quick"] * args.quick


def result_of(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def end_to_end(passes: list[dict], setup: tuple[float, float]) -> dict[str, float]:
    def median(key):
        return statistics.median(p[key] for p in passes)

    return {
        "wall_s": median("wall_s"),
        "setup_s": setup[0],
        "peak_rss_mb": median("peak_rss_mb"),
        "vertices_per_s": statistics.median(p["vertices"] / p["wall_s"] for p in passes),
        "max_request_s": median("max_request_s"),
        "queries_per_s": statistics.median(p["requests"] / p["wall_s"] for p in passes),
        "raw_wall_s": median("raw_wall_s"),
        "raw_setup_s": setup[1],
        "raw_max_request_s": median("raw_max_request_s"),
    }


def src_lines() -> int:
    return sum(
        1
        for path in SRC.rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )


def measure(args) -> tuple[list[dict], dict[str, float]]:
    """(passes, every metric of the run) for the chosen --trace."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = setup_seconds(deadline)
    if args.trace:
        # side by side on the two cores, to keep the run short; each pass is
        # timed in its own thread's yardstick blocks, which takes out most of
        # the load the other one adds
        plain, traced = map(
            result_of,
            run_children([pass_argv(args, False), pass_argv(args, True)], deadline),
        )
        metrics = end_to_end([plain], setup)
        metrics.update(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return [plain, traced], metrics
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start + pass_s <= args.seconds:
        began = time.monotonic()
        passes.append(result_of(run_child(pass_argv(args, False), deadline)))
        pass_s = time.monotonic() - began
    return passes, end_to_end(passes, setup)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="krcrystals benchmark: one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="cheap subset, for the self-test")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "krcrystals" / "__init__.py").is_file():
            raise BenchError(f"no krcrystals sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        passes, values = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    missing = [m["name"] for m in shown if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1

    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}")
    for m in shown:
        print(f"{m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    for name, unit in INFO_UNITS.items():
        print(f"info {name:<35} {values[name]:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(
        f"info workload={args.workload} seed={args.seed} passes={len(passes)} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"src_nonblank_lines={src_lines()}"
    )
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
