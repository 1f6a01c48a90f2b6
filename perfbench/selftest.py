"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the root of a polycode checkout; exits 0 when every check holds.

1. A correct cycle of each small workload fails no operation, and the same
   cycle fed a wrong expected input fails some: the error rate rises.
2. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench").resolve()


def cycle(workload: str, wrong: bool) -> dict:
    tag = f"selftest-{workload}-{int(wrong)}"
    result = OUT / f"{tag}.json"
    argv = [sys.executable, str(HERE / "cycle.py"), "--workload", workload, "--seed", "1",
            "--work", str(OUT / tag), "--out", str(result)]
    if wrong:
        argv.append("--wrong-expected")
    subprocess.run(argv, check=True, timeout=300)
    data = json.loads(result.read_text())
    result.unlink()
    return data


def main() -> int:
    OUT.mkdir(exist_ok=True)
    problems = []
    for workload in ("store-pentagon-small", "sim"):
        good, bad = cycle(workload, False), cycle(workload, True)
        rate_good = good["failed"] / good["attempted"]
        rate_bad = bad["failed"] / bad["attempted"]
        print(f"{workload}: error_rate {rate_good:.4g} correct input, {rate_bad:.4g} wrong input")
        if rate_good != 0 or not rate_bad > rate_good:
            problems.append(f"{workload}: error rate did not rise ({rate_good} -> {rate_bad})")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not fail without the program")

    for p in problems:
        print("FAIL: " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
