"""Alternating parent/change runs of the benchmark, written to one JSON file.

    python3 scripts/bench_pairs.py --rev HEAD --seed 61 --out BENCH.json \\
        grid_check=10 wide_build=3 plan=3

Both sides run from fresh sibling directories in one temporary directory
(tempfile's default): the parent is the committed tree of --rev, unpacked with
`git archive`, and the change is a copy of this checkout's working tree, its
tracked and untracked, non-ignored files.  So both import from the same file
system, neither with bytecode left by earlier runs, and a location cannot
enter a pair.  Each pair runs `perfbench/run.py --trace 0 --seconds S` once
on each side, and the side that goes first alternates from pair to pair.
The file holds every JSON result line, the non-blank `src/` line count of
both sides and, per workload and end-to-end metric, the two medians, the
parent's interquartile range and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_lines(root: Path) -> int:
    return sum(
        1
        for path in (root / "src").rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )


def unpack(rev: str, dest: Path) -> str:
    """Write the tree of rev into dest; its full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha


def copy_worktree(dest: Path) -> None:
    """Copy the tracked and untracked, non-ignored files of this checkout into dest."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one `perfbench/run.py --trace 0` run in root."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: medians, the parent's IQR, pairs won."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r["result"] for r in mine}
        out[workload] = {"pairs": len(pairs), "failed": sum(r["result"]["failed"] for r in mine)}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            parent = [side[p, "parent"]["metrics"][name]["value"] for p in pairs]
            change = [side[p, "change"]["metrics"][name]["value"] for p in pairs]
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(pairs) > 1 else (0, 0, 0)
            out[workload][name] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": q3 - q1,
                "change_won": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD=PAIRS")
    args = parser.parse_args(argv)
    plan = [(w, int(k)) for w, k in (item.split("=") for item in args.plan)]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        sha = unpack(args.rev, roots["parent"])
        copy_worktree(roots["change"])
        runs = []
        for workload, count in plan:
            for pair in range(count):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(roots[side], workload, args.seed, args.seconds)
                    runs.append({
                        "workload": workload, "pair": pair, "side": side,
                        "first": order[0], "result": result,
                    })
                    print(workload, pair, side, result["metrics"]["wall_s"]["value"],
                          f"failed={result['failed']}", file=sys.stderr, flush=True)
        report = {
            "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g} --seed {args.seed}",
            "parent": {"rev": sha, "src_nonblank_lines": src_lines(roots["parent"])},
            "change": {"rev": "working tree", "src_nonblank_lines": src_lines(roots["change"])},
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "summary": summarize(runs, metrics),
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
