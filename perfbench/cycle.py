"""One benchmark cycle: a fresh interpreter that sets up a workload, drives
``polycode.cli.main(argv)`` in-process one command after another (a single
closed-loop client, no threads), checks every output and writes a JSON result.

    python3 perfbench/cycle.py --workload NAME --seed N --trace 0|1 \
        --work DIR --out RESULT.json [--spans SPANS.jsonl] [--wrong-expected]
        [--setup-only]

Run from the root of a polycode checkout.  ``--wrong-expected`` corrupts the
expected copy of one input so the self-test can see the checks fail;
``--setup-only`` stops after set-up, for extra set-up samples.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, inputs, store init

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

from polycode import cli  # noqa: E402

import tracer as tracing  # noqa: E402

MiB = 1 << 20

# Store workloads.  The store seed only drives block placement; it is fixed so
# that every workload seed loses the same blocks to the kill and the work per
# cycle stays comparable across seeds.  The workload seed drives file contents
# and tail lengths.
STORE_SEED = 7
STORE = {
    "store-hlocal-large": {
        "scheme": "heptagon-local",
        "nodes": 15,
        "block_size": 512 * 1024,
        "data_blocks": 40,  # per stripe
        "file_stripes": [2, 2],
        "killed": [0, 1, 2],
        "fsck_reps": 5,
        "decode_reps": 2,
    },
    "store-pentagon-small": {
        "scheme": "pentagon",
        "nodes": 5,
        "block_size": 4096,
        "data_blocks": 9,
        "file_stripes": [1] * 200,
        "killed": [0, 1],
        "fsck_reps": 10,
        "decode_reps": 40,
    },
}

# Many short commands rather than one long one: a rate taken from the median
# command time then ignores the host's bursts of contention.  The
# recoverability cache starts empty in each cycle and fills across commands.
SIM_COMMANDS = 6
SIM_TRIALS = 300  # per scheme and command; enough that Monte Carlo outweighs the chain solves
SIM_RELIABILITY_SCHEMES = ["pentagon", "raidm-9", "heptagon-local"]
SIM_LOCALITY = {
    "schemes": ["2-rep", "pentagon", "heptagon-local"],
    "schedulers": ["matching", "delay", "peeling"],
    "slots": [2, 8],
    "loads": [50, 100],
    "reps": 2,
}
RELIABILITY_COLUMNS = [
    "scheme", "lambda", "mu", "mode", "analytic_hours", "mc_mean_hours",
    "mc_ci_low", "mc_ci_high", "trials", "seed",
]
LOCALITY_COLUMNS = [
    "scheme", "scheduler", "nodes", "slots", "load_pct", "seed", "tasks",
    "local_tasks", "locality_pct", "remote_blocks",
]


class Cycle:
    def __init__(self, trace: bool):
        self.tracer = tracing.Tracer() if trace else None
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cmd_s: dict[str, list[float]] = {}  # phase -> duration of each command
        self.io: dict[str, dict[str, int]] = {}
        self.digests: dict[str, "hashlib._Hash"] = {}
        self.counts: dict[str, float] = {}
        self._io_self = None

    def fail(self, phase: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{phase}: {message}")

    def digest(self, phase: str, data: bytes) -> None:
        self.digests.setdefault(phase, hashlib.sha256()).update(
            len(data).to_bytes(8, "little") + data
        )

    def run(self, phase: str, argv: list, check=None) -> str | None:
        """One CLI command: timed, counted, its stdout digested and checked.
        Returns stdout, or None when the command failed."""
        argv = [str(a) for a in argv]
        self.ops += 1
        out, err = io.StringIO(), io.StringIO()
        io0 = self._read_io() if self.tracer else None
        if self.tracer:
            self.tracer.op = self.ops
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            rc = traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        self.cmd_s.setdefault(phase, []).append(time.perf_counter() - t)
        if io0 is not None:
            io1 = self._read_io()
            acc = self.io.setdefault(phase, {})
            for key in ("rchar", "wchar", "syscr", "syscw"):
                acc[key] = acc.get(key, 0) + io1[key] - io0[key] - self._io_self[key]
        text = out.getvalue()
        self.digest(phase, text.encode())
        if rc != 0:
            self.fail(phase, f"{' '.join(argv[:2])} returned {rc}: {err.getvalue().strip()[-200:]}")
            return None
        if check is not None:
            problem = check(text)
            if problem:
                self.fail(phase, f"{' '.join(argv[:2])}: {problem}")
                return None
        return text

    def _read_io(self):
        if self._io_self is None:  # cost of one read of the counters itself
            a = tracing.read_proc_io()
            b = tracing.read_proc_io()
            self._io_self = {k: b[k] - a[k] for k in ("rchar", "wchar", "syscr", "syscw")}
        return tracing.read_proc_io()

    def verify_file(self, phase: str, path: Path, expected: bytes) -> None:
        try:
            data = path.read_bytes()
            path.unlink()
        except OSError as exc:
            self.fail(phase, f"output unreadable: {exc}")
            return
        self.digest(phase, data)
        if data != expected:
            self.fail(phase, f"{path.name} differs from its input")


def expect_line(prefix: str):
    def check(text):
        return None if text.startswith(prefix) else f"expected {prefix!r}, got {text[:120]!r}"
    return check


def count_after_colon(text: str) -> int:
    """The integer after the last colon, or -1 when there is none."""
    try:
        return int(text.rsplit(":", 1)[-1])
    except ValueError:
        return -1


def parse_counts(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# store workloads


def make_inputs(spec: dict, seed: int) -> tuple[list[tuple[str, bytes]], bytes]:
    """Files whose sizes are a whole number of stripes minus about one block,
    so the last stripe of each is tail-padded, and one full stripe for
    ``code encode``."""
    rng = random.Random(seed)
    block = spec["block_size"]
    stripe = spec["data_blocks"] * block
    files = []
    for i, stripes in enumerate(spec["file_stripes"]):
        size = stripes * stripe - rng.randrange(block // 2, block + block // 2)
        files.append((f"f{i:03d}.bin", rng.randbytes(size)))
    return files, rng.randbytes(stripe)


def run_store(c: Cycle, name: str, seed: int, wrong_expected: bool, setup_only: bool) -> dict:
    spec = STORE[name]
    block, stripe = spec["block_size"], spec["data_blocks"] * spec["block_size"]
    files, stripe_input = make_inputs(spec, seed)
    Path("in").mkdir()
    for fname, data in files:
        Path("in", fname).write_bytes(data)
    Path("stripe.bin").write_bytes(stripe_input)
    expected = dict(files)
    if wrong_expected:
        first = files[0][0]
        expected[first] = bytes([expected[first][0] ^ 1]) + expected[first][1:]
        stripe_input = bytes([stripe_input[0] ^ 1]) + stripe_input[1:]
    user_bytes = sum(len(d) for _, d in files)
    user_blocks = sum(-(-len(d) // block) for _, d in files)
    killed = spec["killed"]

    c.run("init", ["store", "init", "--root", "store", "--scheme", spec["scheme"],
                   "--nodes", spec["nodes"], "--block-size", block, "--seed", STORE_SEED],
          expect_line(f"initialized {spec['scheme']} store with {spec['nodes']} nodes"))
    setup_s = time.perf_counter() - T0
    if setup_only:
        return {"setup_s": setup_s, "work": {}}
    if c.tracer:
        c.tracer.install()

    for fname, data in files:
        c.run("put", ["store", "put", "--root", "store", "--file", f"in/{fname}"],
              expect_line(f"stored {fname}: {len(data)} bytes"))
    stored = sum(p.stat().st_size for p in Path("store").glob("n*/*.blk"))

    def get_all(phase):
        transfers = 0
        for fname, data in files:
            text = c.run(phase, ["store", "get", "--root", "store", "--name", fname,
                                 "--output", "out.bin"],
                         expect_line(f"read {len(data)} bytes"))
            if text is None:
                continue
            transfers += count_after_colon(text)  # "...; degraded transfers: N"
            c.verify_file(phase, Path("out.bin"), expected[fname])
        return transfers

    get_all("get")
    on_killed = sum(len(list(Path("store", f"n{k}").glob("*.blk"))) for k in killed)
    for k in killed:
        c.run("kill", ["store", "kill", "--root", "store", "--node", k],
              expect_line(f"node {k} is down"))

    def fsck_check(missing, verdict):
        def check(text):
            got = parse_counts(text)
            want = {"missing": str(missing), "corrupt": "0", "fatal_stripes": "0"}
            bad = {k: got.get(k) for k in want if got.get(k) != want[k]}
            if bad or text.strip().splitlines()[-1:] != [verdict]:
                return f"fsck reported {got} / {text.strip().splitlines()[-1:]}, wanted {want} {verdict}"
            return None
        return check

    for _ in range(spec["fsck_reps"]):
        c.run("fsck", ["store", "fsck", "--root", "store"], fsck_check(on_killed, "damaged"))
    degraded = get_all("degraded_get")
    text = c.run("repair", ["store", "repair", "--root", "store"], expect_line("plans_executed:"))
    repair = parse_counts(text or "")
    get_all("check_get")
    c.run("fsck_clean", ["store", "fsck", "--root", "store"], fsck_check(0, "clean"))

    c.run("encode", ["code", "encode", "--scheme", spec["scheme"], "--input", "stripe.bin",
                     "--out-dir", "enc", "--block-size", block],
          expect_line(f"encoded {stripe} bytes"))
    for _ in range(spec["decode_reps"]):
        if c.run("decode", ["code", "decode", "--in-dir", "enc", "--killed",
                            ",".join(map(str, killed)), "--output", "dec.bin"],
                 expect_line(f"decoded {stripe} bytes")) is not None:
            c.verify_file("decode", Path("dec.bin"), stripe_input)

    mib = user_bytes / MiB
    work = {  # rate -> [phase, amount of work the phase does per cycle]
        "put_MiBps": ["put", mib],
        "get_MiBps": ["get", mib],
        "degraded_get_MiBps": ["degraded_get", mib],
        "fsck_MiBps": ["fsck", mib * spec["fsck_reps"]],
        "repair_MiBps": ["repair", mib],
        "decode_MiBps": ["decode", stripe * spec["decode_reps"] / MiB],
    }
    c.counts.update({
        "user_bytes": user_bytes,
        "user_blocks": user_blocks,
        "stored_bytes": stored,
        "degraded_transfers": degraded,
        "repair_plans": count_after_colon(repair.get("plans_executed", "")),
        "repair_transfers": count_after_colon(repair.get("bandwidth_blocks", "")),
        "fsck_reps": spec["fsck_reps"],
    })
    if degraded == 0:
        c.fail("degraded_get", "the kill left no block to rebuild")
    return {"setup_s": setup_s, "work": work}


# ---------------------------------------------------------------------------
# sim workload


def _finite_positive(row, key):
    try:
        v = float(row[key])
    except (KeyError, ValueError):
        return False
    return math.isfinite(v) and v > 0


def check_reliability(seed):
    def check(text):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != RELIABILITY_COLUMNS:
            return f"bad header {rows[:1]}"
        body = [dict(zip(rows[0], r)) for r in rows[1:]]
        if [r["scheme"] for r in body] != SIM_RELIABILITY_SCHEMES:
            return f"schemes {[r['scheme'] for r in body]}"
        for r in body:
            for key in ("analytic_hours", "mc_mean_hours", "mc_ci_low", "mc_ci_high"):
                if not _finite_positive(r, key):
                    return f"{r['scheme']} {key}={r.get(key)!r} is not finite and positive"
            if not float(r["mc_ci_low"]) <= float(r["mc_mean_hours"]) <= float(r["mc_ci_high"]):
                return f"{r['scheme']} mean outside its own interval"
            if r["trials"] != str(SIM_TRIALS) or r["seed"] != str(seed):
                return f"{r['scheme']} trials/seed echo {r['trials']}/{r['seed']}"
        return None
    return check


def check_locality(text):
    loc = SIM_LOCALITY
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != LOCALITY_COLUMNS:
        return f"bad header {rows[:1]}"
    body = [dict(zip(rows[0], r)) for r in rows[1:]]
    want = (len(loc["schemes"]) * len(loc["schedulers"]) * len(loc["slots"])
            * len(loc["loads"]) * loc["reps"])
    if len(body) != want:
        return f"{len(body)} rows, wanted {want}"
    instances: dict[tuple, dict[str, dict]] = {}
    for r in body:
        if not 0.0 <= float(r["locality_pct"]) <= 100.0:
            return f"locality {r['locality_pct']} out of range"
        key = (r["scheme"], r["slots"], r["load_pct"], r["seed"])
        instances.setdefault(key, {})[r["scheduler"]] = r
    for key, by in instances.items():
        if set(by) != set(loc["schedulers"]):
            return f"instance {key} has schedulers {sorted(by)}"
        if len({r["tasks"] for r in by.values()}) != 1:
            return f"instance {key} schedules different task counts"
        best = int(by["matching"]["local_tasks"])
        for name, r in by.items():
            if int(r["local_tasks"]) > best:
                return f"instance {key}: {name} beats matching ({r['local_tasks']} > {best})"
    return None


def run_sim(c: Cycle, seed: int, wrong_expected: bool, setup_only: bool) -> dict:
    setup_s = time.perf_counter() - T0
    if setup_only:
        return {"setup_s": setup_s, "work": {}}
    if c.tracer:
        c.tracer.install()
    loc = SIM_LOCALITY
    seeds = [seed * 1000 + i for i in range(SIM_COMMANDS)]
    for s in seeds:
        # the self-test expects a seed echo that the command cannot produce
        check = check_reliability(s + 1 if wrong_expected else s)
        c.run("reliability", ["sim", "reliability", "--scheme", ",".join(SIM_RELIABILITY_SCHEMES),
                              "--mttf-hours", 100, "--mttr-hours", 10, "--trials", SIM_TRIALS,
                              "--seed", s, "--threads", 1, "--out", "-"], check)
    for s in seeds:
        c.run("locality", ["sim", "locality", "--scheme", ",".join(loc["schemes"]),
                           "--scheduler", ",".join(loc["schedulers"]), "--nodes", 25,
                           "--slots", ",".join(map(str, loc["slots"])),
                           "--load", ",".join(map(str, loc["loads"])), "--reps", loc["reps"],
                           "--seed", s, "--out", "-"], check_locality)
    rows = (len(loc["schemes"]) * len(loc["schedulers"]) * len(loc["slots"])
            * len(loc["loads"]) * loc["reps"]) * SIM_COMMANDS
    trials = SIM_TRIALS * len(SIM_RELIABILITY_SCHEMES) * SIM_COMMANDS
    c.counts.update({"trials": trials, "rows": rows})
    return {
        "setup_s": setup_s,
        "work": {"mc_trials_per_s": ["reliability", trials], "sweep_rows_per_s": ["locality", rows]},
    }


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[*STORE, "sim"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--wrong-expected", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out_path = Path(args.out).resolve()
    spans_path = Path(args.spans).resolve() if args.spans else None
    work = Path(args.work).resolve()
    work.mkdir(parents=True)
    os.chdir(work)  # relative paths keep the CLI's printed text checkout-independent

    c = Cycle(bool(args.trace))
    try:
        if args.workload == "sim":
            res = run_sim(c, args.seed, args.wrong_expected, args.setup_only)
        else:
            res = run_store(c, args.workload, args.seed, args.wrong_expected, args.setup_only)
    finally:
        if c.tracer:
            c.tracer.restore()
        os.chdir(out_path.parent)
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": res["setup_s"],
        "cmd_s": c.cmd_s,
        "work": res["work"],
        "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": c.ops,
        "failed": c.failed,
        "errors": c.errors,
        "counts": c.counts,
        "digests": {k: h.hexdigest() for k, h in sorted(c.digests.items())},
    }
    if c.tracer:
        cache = tracing.recoverable_cache()
        result["trace"] = {
            "spans": c.tracer.summary(),
            "counters": dict(c.tracer.counters),
            "missing": c.tracer.missing,
            "recoverable_cache_entries": len(cache) if cache is not None else None,
            "io": c.io,
        }
        if spans_path is not None:
            c.tracer.dump(spans_path)
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
