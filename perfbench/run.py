"""polycode benchmark: one workload, one seed, for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polycode checkout.  Each cycle of the workload runs in
a fresh interpreter (``cycle.py``), so every cycle starts as cold as a CLI
user's process.  With ``--trace 0`` the run makes a fixed number of cycles,
``--seconds`` divided by the workload's nominal cycle time, and the result
holds the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the run
alternates untraced and traced cycles until the next pair would end after
``--seconds`` (at least one pair), and the result holds the per-layer
metrics.  The last line of standard output is the result object; the lines
above it give the environment, every phase rate, the error rate and the
output digests.  A full record is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
MiB = 1 << 20
RUN_LIMIT_S = 170  # a cycle still running then is killed and the run fails
# An untraced run makes round(seconds / nominal) cycles, so the number of
# samples behind each median does not depend on how busy the host is, unless
# the host is so slow that the next cycle would end LATE_SHARE past --seconds.
NOMINAL_CYCLE_S = {"store-hlocal-large": 9.0, "store-pentagon-small": 7.0, "sim": 6.0}
LATE_SHARE = 0.2
SETUP_SAMPLES = 3
CALIBRATION_LOOPS = 1_000_000

STORE_RATES = ["put_MiBps", "get_MiBps", "degraded_get_MiBps", "fsck_MiBps",
               "repair_MiBps", "decode_MiBps"]
SIM_RATES = ["mc_trials_per_s", "sweep_rows_per_s"]
RATE_UNITS = {**{k: "MiB/s" for k in STORE_RATES}, "mc_trials_per_s": "trials/s",
              "sweep_rows_per_s": "rows/s"}
# Phases whose syscall counters the traced run reports.
IO_PHASES = ["put", "get", "degraded_get", "fsck", "repair"]


class BenchError(Exception):
    pass


def calibrate() -> float:
    """Time of a fixed pure-Python loop: shows slow phases of the host.
    Reported beside the metrics; no metric is divided by it."""
    t = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i & 7
    return time.perf_counter() - t


def environment(work: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs, best = "unknown", -1
    real = os.path.realpath(work)
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            mount = parts[1]
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > best:
                fs, best = parts[2], len(mount)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "store_fs": fs,
        "platform": platform.platform(),
    }


def run_cycle(workload, seed, trace, out_dir: Path, tag: str, timeout: float, setup_only=False):
    result = out_dir / f"cycle-{tag}.json"
    argv = [sys.executable, str(HERE / "cycle.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--work", str(out_dir / f"work-{tag}"),
            "--out", str(result)]
    if trace:
        argv += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.jsonl.gz")]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    finally:  # a killed cycle leaves its work directory behind
        shutil.rmtree(out_dir / f"work-{tag}", ignore_errors=True)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"cycle {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def phase_times(cycles: list[dict]) -> dict[str, float]:
    """Per phase: the median duration of its commands, pooled over cycles,
    times the number of commands it runs per cycle.  Many short commands
    give a median that the host's bursts of contention barely move."""
    pooled: dict[str, list[float]] = {}
    for c in cycles:
        for phase, times in c["cmd_s"].items():
            pooled.setdefault(phase, []).extend(times)
    return {p: median(t) * len(t) / len(cycles) for p, t in pooled.items()}


def workflow_s(cycles: list[dict]) -> float:
    """Time of one cycle's commands after set-up."""
    return sum(t for p, t in phase_times(cycles).items() if p != "init")


def rates(cycles: list[dict]) -> dict[str, float]:
    times = phase_times(cycles)
    return {name: amount / times[phase] for name, (phase, amount) in cycles[0]["work"].items()}


def layer_metrics(traced: list[dict], untraced: list[dict], calib: list[float]) -> dict:
    """Per-layer metrics from the traced cycles: counts from the first one
    (they must repeat exactly in the others), times as medians."""
    first = traced[0]
    counts = first["counts"]

    def span(label, key):
        vals = [t["trace"]["spans"].get(label, {}).get(key, 0) for t in traced]
        return vals[0] if key == "calls" else median(vals)

    def counter(name):
        return first["trace"]["counters"].get(name, 0)

    m: dict[str, float] = {}
    for fn in ("xor_bytes", "scale_bytes", "xor_many"):
        label = f"gf256.{fn}"
        m[f"{label}.calls"] = span(label, "calls")
        m[f"{label}.MiB"] = counter(f"{label}.bytes") / MiB
        m[f"{label}.busy_s"] = span(label, "busy_s")
    for fn in ("encode_stripe", "decode_stripe", "execute_plan"):
        for key in ("calls", "busy_s", "self_s"):
            m[f"codes.{fn}.{key}"] = span(f"codes.{fn}", key)
    m["codes.execute_plan.transfers"] = counter("codes.execute_plan.transfers")
    for fn in ("plan_degraded_read", "plan_repair", "can_decode_from", "is_recoverable_mask"):
        for key in ("calls", "busy_s"):
            m[f"codes.{fn}.{key}"] = span(f"codes.{fn}", key)
    calls = m["codes.is_recoverable_mask.calls"]
    m["codes.recoverable_cache.entries"] = first["trace"]["recoverable_cache_entries"] or 0
    m["codes.recoverable_cache.hit_ratio"] = (
        counter("codes.is_recoverable_mask.hits") / calls if calls else 0.0
    )
    for fn in ("open", "put", "get", "fsck", "repair"):
        for key in ("calls", "busy_s", "self_s"):
            m[f"blockstore.{fn}.{key}"] = span(f"blockstore.{fn}", key)
    io = first["trace"]["io"]
    for phase in IO_PHASES:
        reps = counts.get("fsck_reps", 1) if phase == "fsck" else 1
        c = io.get(phase)
        user = counts.get("user_bytes", 0) * reps
        blocks = counts.get("user_blocks", 0) * reps
        m[f"blockstore.{phase}.read_amp"] = c["rchar"] / user if c and user else 0.0
        m[f"blockstore.{phase}.write_amp"] = c["wchar"] / user if c and user else 0.0
        m[f"blockstore.{phase}.syscalls_per_block"] = (
            (c["syscr"] + c["syscw"]) / blocks if c and blocks else 0.0
        )
    user = counts.get("user_bytes", 0)
    m["blockstore.stored_bytes_per_user_byte"] = counts.get("stored_bytes", 0) / user if user else 0.0
    m["blockstore.degraded_transfers"] = counts.get("degraded_transfers", 0)
    m["blockstore.repair.plans"] = counts.get("repair_plans", 0)
    m["blockstore.repair.transfers"] = counts.get("repair_transfers", 0)
    for fn in ("build_markov_chain", "mttdl_analytic", "mttdl_montecarlo"):
        for key in ("calls", "busy_s", "self_s"):
            m[f"reliability.{fn}.{key}"] = span(f"reliability.{fn}", key)
    trials = counter("reliability.trials")
    m["reliability.events_per_trial"] = counter("reliability.events") / trials if trials else 0.0
    for fn in ("build_cluster", "generate_workload"):
        m[f"mapsched.{fn}.busy_s"] = span(f"mapsched.{fn}", "busy_s")
    for fn in ("schedule_maxmatch", "schedule_delay", "schedule_peeling"):
        n = span(f"mapsched.{fn}", "calls")
        m[f"mapsched.{fn}.calls"] = n
        m[f"mapsched.{fn}.ms_per_wave"] = span(f"mapsched.{fn}", "busy_s") * 1000 / n if n else 0.0
    m["cli.main.calls"] = span("cli.main", "calls")
    m["cli.main.self_s"] = span("cli.main", "self_s")
    m["cli.build_parser.calls"] = span("cli.build_parser", "calls")
    m["cli.build_parser.busy_s"] = span("cli.build_parser", "busy_s")
    m["cli.emit_report.busy_s"] = span("cli.emit_report", "busy_s")
    m["trace.overhead_ratio"] = workflow_s(traced) / workflow_s(untraced)
    m["trace.missing_targets"] = len(first["trace"]["missing"])
    m["host.calibration_s"] = median(calib)
    measured = rates(untraced)
    for name in STORE_RATES + SIM_RATES:
        m[name] = measured.get(name, 0.0)
    attempted = sum(u["attempted"] for u in untraced)
    m["error_rate"] = sum(u["failed"] for u in untraced) / attempted
    return m


def repeat_mismatches(traced: list[dict]) -> list[str]:
    """Count metrics that differ between traced cycles of one seed."""
    out = []
    ref = traced[0]
    for other in traced[1:]:
        for label, s in ref["trace"]["spans"].items():
            if other["trace"]["spans"].get(label, {}).get("calls") != s["calls"]:
                out.append(f"{label}.calls")
        for key in ("counters", "recoverable_cache_entries"):
            if other["trace"][key] != ref["trace"][key]:
                out.append(f"trace.{key}")
        if other["counts"] != ref["counts"]:
            out.append("counts")
    return sorted(set(out))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = Path("BENCHMARK.json")
    if not (Path("src/polycode/cli.py").is_file() and spec_path.is_file()):
        print("run from the root of a polycode checkout (src/polycode, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = Path(".perfbench").resolve()
    out_dir.mkdir(exist_ok=True)
    env = environment(out_dir)
    start = time.monotonic()
    deadline = start + args.seconds
    late = deadline + LATE_SHARE * args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    calib: list[float] = []
    cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload])) if not args.trace else 0

    def cycle(trace, tag, setup_only=False):
        timeout = max(1.0, start + RUN_LIMIT_S - time.monotonic())
        return run_cycle(args.workload, args.seed, trace, out_dir, f"{os.getpid()}-{tag}",
                         timeout, setup_only)

    try:
        for n in itertools.count():
            t = time.monotonic()
            calib.append(calibrate())
            untraced.append(cycle(0, n))
            setups.append(untraced[-1]["setup_s"])
            if args.trace:
                traced.append(cycle(1, f"{n}t"))
            next_end = time.monotonic() + (time.monotonic() - t)
            if n + 1 == cycles or next_end > (deadline if args.trace else late):
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(cycle(0, f"s{len(setups)}", setup_only=True)["setup_s"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cycle failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in untraced + traced)
    failed = sum(c["failed"] for c in untraced + traced)
    errors = [e for c in untraced + traced for e in c["errors"]]
    digests = untraced[0]["digests"]
    if any(c["digests"] != digests for c in untraced + traced):
        errors.append("outputs differ between cycles of one seed")
    if args.trace:
        errors += [f"count differs between traced cycles: {k}" for k in repeat_mismatches(traced)]
        metrics = layer_metrics(traced, untraced, calib)
    else:
        metrics = {
            "setup_s": median(setups),
            "workflow_s": workflow_s(untraced),
            "peak_rss_MiB": max(c["peak_rss_MiB"] for c in untraced),
        }
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print(f"metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "calibration_s": calib,
        "cycles": len(untraced),
        "setup_s": setups,
        "rates": rates(untraced),
        "error_rate": failed / attempted,
        "errors": errors[:50],
        "digests": digests,
        "untraced": untraced,
        "traced": traced,
        "missing_targets": traced[0]["trace"]["missing"] if traced else [],
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print("env " + json.dumps({**env, "calibration_s_median": median(calib)}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"cycles {len(untraced)} setup_samples {len(setups)}")
    for k, v in record["rates"].items():
        print(f"  {k} {v:.4f} {RATE_UNITS[k]}")
    print(f"  error_rate {record['error_rate']:.6g} ratio ({failed} failed / {attempted} attempted)")
    for e in errors[:10]:
        print(f"  error: {e}")
    if record["missing_targets"]:
        print("  missing trace targets: " + ", ".join(record["missing_targets"]))
    print("digests " + json.dumps(digests, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
