"""Golden outputs: sha256 digests of CLI and planner output bytes.

The first six digests were recorded once from the code as it stood before
the geometry / elimination refactor; ``sim-reliability-serial`` and
``sim-locality-peeling`` were recorded before the incremental peeling
scheduler and the per-run Monte Carlo loss table.  None may ever be
regenerated to make a change pass.  A mismatch means some output byte changed.

The four ``sim-locality-draws-*`` digests were recorded, and checked, at the
code as it stood before the tabled cluster builder, the slot-capacity
matching and the live-host delay scheduler.  They cover the replicated and
RAID+m host draws on both of ``random.sample``'s branches (20 nodes fit its
pool, 25 take its set) and both delay settings that bracket the default.

``repair-plans`` and ``degraded-reads`` were recorded again when the two
loss planners became one.  A repair now copies onto the down slots in
block-id order, solves, copies the rebuilt blocks on and copies over
corrupt replicas last; a lone block is sent whole, not as a one-term
partial parity; and a degraded read of a data block no longer rebuilds a
lost parity beside it.  No plan moves more blocks than before, which
``test_no_plan_moves_more_than_the_table`` in ``test_codes.py`` checks.
"""

import argparse
import contextlib
import hashlib
import io
import itertools

import pytest

from polycode import cli, schemes
from polycode.cli import REPORT_SCHEMES, main
from polycode.codes import BlockAvailableError, CodeError, WholeCopy, plan_degraded_read
from polycode.schemes import parse_scheme, tolerance

GOLDEN = {
    "report-schemes": "78d04520c218c599529e67194caf99e94bce411f0dcceabb72fd5edd7eedba67",
    "sim-locality": "4829a78cbb4ea98bb0ea43b4c9c3a948c97f76f7cdd4d8b36241a7ca3e4044c4",
    "sim-reliability": "b24214cbeb495ce9bad93686f30cb779ac12fcfd5d4452845483a6de7476141f",
    "sim-reliability-serial": "7a9bab915bc1ceb53950a1ed30a32078b0f721cdf0a66f0c973db3345ca10e55",
    "sim-locality-peeling": "b101659480aa63f4c38523d2e31a107434a067be2fa36c069201013b516f969f",
    "sim-locality-draws-20-r0": "5c1289536de87f0a0783864523fd8fa605dc8c6b8c839ef179dc7b2e9cd4259e",
    "sim-locality-draws-20-r2": "761de5c24cccc219f05934e8217a5f030c23aa1697f84bf535c61fdfb39590dc",
    "sim-locality-draws-25-r0": "de7f3df7eda1e25809e59dbb23f3f1462251ef059ab2e69f068cba5cd42fab51",
    "sim-locality-draws-25-r2": "e180cf47e399c13c6f7f322c419da555e348834f1ec9f720563dda0efe41589c",
    "code-encode": "f77049a4630aeb95c3d8a8aecba45263de8319aaff7c5b499eb7fba8969a1675",
    "repair-plans": "409fac4110e70aa1e58813760f8354430fdb15b5be85e92c4c94fa0dd284b17d",
    "degraded-reads": "60111cddec03a941106c539a7530b466e3658f77f9f83a6cc257f69ff3656280",
}


def _run_main(*argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}".encode()


def _report_schemes(tmp_path):
    yield _run_main("report", "--kind", "schemes")


def _sim_locality(tmp_path):
    yield _run_main(
        "sim", "locality",
        "--scheme", "2-rep,pentagon,heptagon,heptagon-local,raidm-9",
        "--scheduler", "matching,delay,peeling",
        "--nodes", "25", "--slots", "2,4", "--load", "50,150",
        "--reps", "2", "--seed", "17",
    )


def _sim_reliability(tmp_path):
    yield _run_main(
        "sim", "reliability",
        "--scheme", "3-rep,pentagon,raidm-9,heptagon-local",
        "--mttf-hours", "100", "--mttr-hours", "10",
        "--trials", "200", "--seed", "23", "--threads", "1",
    )


def _sim_reliability_serial(tmp_path):
    yield _run_main(
        "sim", "reliability",
        "--scheme", "3-rep,pentagon,raidm-9,heptagon-local",
        "--mttf-hours", "100", "--mttr-hours", "10", "--mode", "serial",
        "--trials", "200", "--seed", "31", "--threads", "1",
    )


def _sim_locality_peeling(tmp_path):
    yield _run_main(
        "sim", "locality",
        "--scheme", "2-rep,pentagon,heptagon,heptagon-local,raidm-9",
        "--scheduler", "peeling",
        "--nodes", "40", "--slots", "8", "--load", "100",
        "--reps", "2", "--seed", "29",
    )


def _sim_locality_draws(nodes, rounds):
    def produce(tmp_path):
        yield _run_main(
            "sim", "locality",
            "--scheme", "2-rep,3-rep,raidm-9",
            "--scheduler", "matching,delay",
            "--nodes", str(nodes), "--slots", "1,4", "--load", "50,200",
            "--reps", "2", "--seed", "41", "--delay-rounds", str(rounds),
        )

    return produce


def _code_encode(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes((i * 131 + 7) % 251 for i in range(9000)))
    for name in ("pentagon", "heptagon", "heptagon-local", "raidm-9", "3-rep"):
        out_dir = tmp_path / name
        yield _run_main(
            "code", "encode", "--scheme", name, "--input", str(src),
            "--out-dir", str(out_dir),
        ).replace(str(out_dir).encode(), b"<out>")
        for path in sorted(out_dir.iterdir()):
            yield path.name.encode() + b"\n" + path.read_bytes()


def _repair_plans(tmp_path):
    for name in REPORT_SCHEMES:
        scheme = parse_scheme(name)
        for size in range(1, tolerance(scheme) + 1):
            for pattern in itertools.combinations(range(scheme.code_length), size):
                args = argparse.Namespace(
                    scheme=name, failed=",".join(map(str, pattern))
                )
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    cli._cmd_code_repair_plan(args)
                yield f"{name} {pattern}\n{out.getvalue()}".encode()


def _transfer_text(t) -> str:
    if isinstance(t.payload, WholeCopy):
        what = f"copy {t.payload.block_id}"
    else:
        what = "partial " + " ".join(f"{b}*{c}" for b, c in t.payload.terms)
    return f"{t.src}->{t.dst} {what} delivers={t.delivers}"


def _degraded_reads(tmp_path):
    for name in REPORT_SCHEMES:
        scheme = parse_scheme(name)
        placements = schemes._geometry(scheme).placements
        for size in (1, 2, 3):
            for pattern in itertools.combinations(range(scheme.code_length), size):
                for block in sorted(placements):
                    if not set(placements[block]) <= set(pattern):
                        continue
                    try:
                        plan = plan_degraded_read(scheme, block, pattern)
                    except BlockAvailableError:
                        raise AssertionError("fully lost block reported available")
                    except CodeError as exc:
                        text = type(exc).__name__
                    else:
                        text = "\n".join(_transfer_text(t) for t in plan.transfers)
                    yield f"{name} {pattern} {block}\n{text}\n".encode()


PRODUCERS = {
    "report-schemes": _report_schemes,
    "sim-locality": _sim_locality,
    "sim-reliability": _sim_reliability,
    "sim-reliability-serial": _sim_reliability_serial,
    "sim-locality-peeling": _sim_locality_peeling,
    "sim-locality-draws-20-r0": _sim_locality_draws(20, 0),
    "sim-locality-draws-20-r2": _sim_locality_draws(20, 2),
    "sim-locality-draws-25-r0": _sim_locality_draws(25, 0),
    "sim-locality-draws-25-r2": _sim_locality_draws(25, 2),
    "code-encode": _code_encode,
    "repair-plans": _repair_plans,
    "degraded-reads": _degraded_reads,
}


@pytest.mark.parametrize("item", sorted(GOLDEN))
def test_golden_output_digest(item, tmp_path):
    h = hashlib.sha256()
    for chunk in PRODUCERS[item](tmp_path):
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    assert h.hexdigest() == GOLDEN[item], f"{item} output bytes changed"
