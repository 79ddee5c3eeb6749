"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Every workload runs at reduced size
(--quick), untraced and traced, and must report exactly the metrics
BENCHMARK.json names, with their units, and no failed operation.  Then one
recorded digest is corrupted and a pass must count the mismatch as a failed
operation instead of stopping.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402  (needs src/ on the path)


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload["name"], trace)
            label = f"{workload['name']} --trace {trace}"
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys")
            check(result["correct"] and result["failed"] == 0, f"{label}: failed operations")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == {m["name"]: m["unit"] for m in listed}, f"{label}: metric set")
            print(f"ok {label}: {len(units)} metrics, {result['attempted']} operations")

    expected = json.loads(worker.EXPECTED.read_text())
    clean = worker.run_pass("wide_build", 7, expected, quick=True)
    victim = worker.spec_key(worker.workload_specs("wide_build", 7, quick=True)[0])
    expected["specs"][victim]["json"] = "0" * 64
    broken = worker.run_pass("wide_build", 7, expected, quick=True)
    check(clean["failed"] == 0, "clean pass failed")
    check(broken["failed"] == 1 and broken["attempted"] == clean["attempted"],
          f"corrupted digest counted {broken['failed']} failures")
    print(f"ok corrupted digest of {victim}: error rate 0 -> 1/{broken['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
