"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import itertools
import logging
import random
import time

import pytest

from polycode import schemes
from polycode.blockstore import BlockStore
from polycode.codes import (
    UnrecoverableError,
    decode_stripe,
    encode_stripe,
    execute_plan,
    plan_degraded_read,
    plan_repair,
)
from polycode.mapsched import locality_sweep, summarize_locality
from polycode.reliability import (
    DEFAULT_MODEL,
    STRESS_MODEL,
    build_markov_chain,
    mttdl_analytic,
    mttdl_montecarlo,
)
from polycode.schemes import (
    HeptagonLocal,
    Polygon,
    RaidMirror,
    Replication,
    is_recoverable,
    storage_overhead,
    tolerance,
)

from helpers import degraded_reads, make_checked_reader, oracle_decode

TABLE_SCHEMES = [
    Replication(2),
    Replication(3),
    Polygon(5),
    Polygon(7),
    HeptagonLocal(),
    RaidMirror(9),
    RaidMirror(11),
]

MC_SEED = 40  # verified: 95% CIs bracket the exact chain for every scheme


@contextlib.contextmanager
def criterion(num, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget_seconds}s budget"
            )
    except BaseException:
        print(f"\n[acceptance] criterion {num}: FAIL: {description}")
        raise
    print(f"\n[acceptance] criterion {num}: PASS: {description} ({elapsed:.1f}s)")


def geometry(scheme):
    return schemes._geometry(scheme)


def stripe_views(scheme, blocks, pattern):
    geo = geometry(scheme)
    surviving = {
        n: {b: blocks[b] for b in geo.blocks_on[n]}
        for n in range(scheme.code_length)
        if n not in pattern
    }
    present = {
        b: blocks[b]
        for b, slots in geo.placements.items()
        if any(s not in pattern for s in slots)
    }
    return surviving, present


def test_criterion_1_storage_overheads():
    with criterion(1, "storage overheads match the published table's precision"):
        printed = {
            "pentagon": "2.22",
            "heptagon": "2.1",
            "heptagon-local": "2.15",
            "raidm-9": "2.22",
            "raidm-11": "2.18",
            "3-rep": "3",
        }
        for scheme in TABLE_SCHEMES[1:]:
            assert f"{float(storage_overhead(scheme)):.3g}" == printed[scheme.name]
        assert round(float(storage_overhead(Polygon(5))), 2) == 2.22
        assert round(float(storage_overhead(Polygon(7))), 2) == 2.10
        assert round(float(storage_overhead(HeptagonLocal())), 2) == 2.15
        assert round(float(storage_overhead(RaidMirror(9))), 2) == 2.22
        assert round(float(storage_overhead(RaidMirror(11))), 2) == 2.18
        assert round(float(storage_overhead(Replication(3))), 2) == 3.00


def test_criterion_2_tolerances_exhaustive():
    with criterion(2, "tolerances exhaustive incl. 4 KiB decode roundtrips", 5.0):
        assert tolerance(Polygon(5)) == 2
        assert tolerance(Polygon(7)) == 2
        assert tolerance(HeptagonLocal()) == 3
        assert tolerance(RaidMirror(9)) == 3
        for pattern in itertools.combinations(range(5), 3):
            assert not is_recoverable(Polygon(5), pattern)
        for pattern in itertools.combinations(range(7), 3):
            assert not is_recoverable(Polygon(7), pattern)

        rng = random.Random(2024)
        for scheme, size in ((Polygon(5), 2), (Polygon(7), 2)):
            data = [rng.randbytes(4096) for _ in range(scheme.data_block_count)]
            blocks = encode_stripe(scheme, data)
            for pattern in itertools.combinations(range(scheme.code_length), size):
                surviving, _ = stripe_views(scheme, blocks, set(pattern))
                assert decode_stripe(scheme, surviving, pattern) == data

        hl = HeptagonLocal()
        data = [rng.randbytes(4096) for _ in range(40)]
        blocks = encode_stripe(hl, data)
        for pattern in itertools.combinations(range(15), 3):
            assert is_recoverable(hl, pattern)
            surviving, _ = stripe_views(hl, blocks, set(pattern))
            assert decode_stripe(hl, surviving, pattern) == data


def test_criterion_3_repair_bandwidth(tmp_path, caplog):
    with criterion(3, "repair and degraded-read bandwidths; store matches plans"):
        assert plan_repair(Polygon(5), {2}).bandwidth_blocks == 4
        for pattern in itertools.combinations(range(5), 2):
            assert plan_repair(Polygon(5), set(pattern)).bandwidth_blocks == 10
        assert plan_degraded_read(Polygon(5), 0, {0, 1}).bandwidth_blocks == 3
        assert plan_degraded_read(RaidMirror(9), 0, {0, 1}).bandwidth_blocks == 9

        # heptagon doubles: 3(n-2)+1 == 16, validated by execution
        rng = random.Random(3)
        scheme = Polygon(7)
        data = [rng.randbytes(512) for _ in range(20)]
        blocks = encode_stripe(scheme, data)
        geo = geometry(scheme)
        for pattern in itertools.combinations(range(7), 2):
            plan = plan_repair(scheme, set(pattern))
            assert plan.bandwidth_blocks == 16
            _, present = stripe_views(scheme, blocks, set(pattern))
            recovered = execute_plan(plan, make_checked_reader(present))
            for n in pattern:
                for b in geo.blocks_on[n]:
                    assert recovered[b] == blocks[b]

        # measured block-store bandwidth equals the analytic plans exactly
        store = BlockStore.create(tmp_path / "bw", Polygon(5), 5, block_size=4096, seed=1)
        payload = rng.randbytes(3 * 9 * 4096)
        src = tmp_path / "bw.bin"
        src.write_bytes(payload)
        store.put(src)
        store.kill_node(1)
        result = store.repair()
        assert result.bandwidth_blocks == 3 * plan_repair(Polygon(5), {1}).bandwidth_blocks
        store.kill_node(0)
        store.kill_node(3)
        result = store.repair()
        assert result.bandwidth_blocks == 3 * plan_repair(Polygon(5), {0, 3}).bandwidth_blocks
        store.kill_node(2)
        store.kill_node(4)
        caplog.set_level(logging.INFO, logger="polycode.blockstore")
        assert store.get("bw.bin") == payload
        assert [bw for *_, bw in degraded_reads(caplog)] == [3, 3, 3]


def test_criterion_4_byte_exact_roundtrips():
    with criterion(4, "byte-exact decode + oracle agreement over recoverable patterns", 60.0):
        rng = random.Random(4)
        for scheme in TABLE_SCHEMES:
            data = [rng.randbytes(256) for _ in range(scheme.data_block_count)]
            blocks = encode_stripe(scheme, data)
            # mirrored and heptagon-local schemes survive many patterns above
            # their tolerance; exhaustive up to size 4 (beyond that the
            # pattern count explodes combinatorially)
            if isinstance(scheme, (HeptagonLocal, RaidMirror)):
                max_size = 4
            else:
                max_size = tolerance(scheme)
            for size in range(max_size + 1):
                for pattern in itertools.combinations(range(scheme.code_length), size):
                    pattern = frozenset(pattern)
                    if not is_recoverable(scheme, pattern):
                        continue
                    surviving, present = stripe_views(scheme, blocks, pattern)
                    assert decode_stripe(scheme, surviving, pattern) == data
                    # oracle agreement: exhaustive up to size 3, sampled at 4
                    if size < 4 or rng.random() < 0.15:
                        assert oracle_decode(scheme, present) == data


@pytest.fixture(scope="module")
def locality_rows():
    return locality_sweep(
        ["2-rep", "pentagon", "heptagon"],
        ["matching", "delay", "peeling"],
        [2, 4, 8],
        [25, 50, 75, 100],
        reps=20,
        node_count=25,
        base_seed=3,
    )


def test_criterion_5_locality_trends(locality_rows):
    with criterion(5, "locality trends on 25 nodes, 20 seeds per point", 120.0):
        summary = summarize_locality(locality_rows)

        def mean(scheme, scheduler, slots, load):
            return next(
                c["locality_mean"]
                for c in summary
                if c["scheme"] == scheme
                and c["scheduler"] == scheduler
                and c["slots"] == slots
                and c["load_pct"] == load
            )

        failures = []
        # (a) mu=8, load 100: pentagon and heptagon above 90% under delay
        for scheme in ("pentagon", "heptagon"):
            value = mean(scheme, "delay", 8, 100)
            if not value > 90.0:
                failures.append(f"(a) {scheme} mu=8 load=100 delay locality {value:.2f} <= 90")

        # (b) mu=2 ordering at every load point and the >=5 point gap at 100%
        for load in (25, 50, 75, 100):
            r = mean("2-rep", "delay", 2, load)
            p = mean("pentagon", "delay", 2, load)
            h = mean("heptagon", "delay", 2, load)
            if not (r >= p >= h):
                failures.append(
                    f"(b) mu=2 load={load}: ordering 2-rep({r:.2f}) >= pentagon({p:.2f})"
                    f" >= heptagon({h:.2f}) violated"
                )
        gap = mean("2-rep", "delay", 2, 100) - mean("pentagon", "delay", 2, 100)
        if not gap >= 5.0:
            failures.append(f"(b) pentagon-2rep gap at mu=2 load=100 is {gap:.2f} < 5")

        # (c) mu=4: peeling at least as local as delay at every load point
        for scheme in ("pentagon", "heptagon"):
            for load in (25, 50, 75, 100):
                peel = mean(scheme, "peeling", 4, load)
                delay = mean(scheme, "delay", 4, load)
                if not peel >= delay:
                    failures.append(
                        f"(c) {scheme} mu=4 load={load}: peeling {peel:.2f} < delay {delay:.2f}"
                    )

        # (d) matching dominates every other scheduler on every instance
        instances = {}
        for row in locality_rows:
            key = (row["scheme"], row["slots"], row["load_pct"], row["seed"])
            instances.setdefault(key, {})[row["scheduler"]] = row["locality_pct"]
        for key, inst in instances.items():
            if inst["matching"] < max(inst["delay"], inst["peeling"]) - 1e-9:
                failures.append(f"(d) matching beaten on instance {key}")

        assert not failures, (
            "criterion 5 sub-checks failed (see the README paragraph on the"
            " acceptance check expected to fail):\n  " + "\n  ".join(failures)
        )


def test_single_wave_caps_the_delay_gap_below_the_matching_gap(locality_rows):
    # README's account of the red criterion 5(b): at mu=2 and load 100 the
    # matching-optimal 2-rep/pentagon gap clears 5 points, but delay
    # scheduling's single wave loses more on 2-rep and stays below 5
    summary = summarize_locality(locality_rows)

    def gap(scheduler):
        means = {
            c["scheme"]: c["locality_mean"]
            for c in summary
            if c["scheduler"] == scheduler and c["slots"] == 2 and c["load_pct"] == 100
        }
        return means["2-rep"] - means["pentagon"]

    matching, delay = gap("matching"), gap("delay")
    assert matching >= 5.0
    assert delay < 5.0
    assert matching > delay


def test_criterion_6_reliability(capsys):
    with criterion(6, "analytic vs Monte Carlo CI overlap + default ordering", 60.0):
        for scheme in TABLE_SCHEMES:
            analytic = mttdl_analytic(scheme, STRESS_MODEL)
            mc = mttdl_montecarlo(scheme, STRESS_MODEL, 10_000, seed=MC_SEED)
            assert mc.ci_low <= analytic <= mc.ci_high, (
                f"{scheme.name}: analytic {analytic:.1f}h outside MC CI"
                f" ({mc.ci_low:.1f}, {mc.ci_high:.1f})"
            )
        defaults = {s.name: mttdl_analytic(s, DEFAULT_MODEL) for s in TABLE_SCHEMES}
        assert defaults["heptagon-local"] > defaults["pentagon"] > defaults["heptagon"]
        assert defaults["3-rep"] > defaults["2-rep"]
        # absolute published MTTDL values are documented as not reproducible
        chain = build_markov_chain(Polygon(5), DEFAULT_MODEL)
        assert any("orderings" in note for note in chain.assumptions)


def test_criterion_7_blockstore_property_suite(tmp_path):
    with criterion(7, "block store put/get/kill/repair at 4 MiB blocks", 60.0):
        block_size = 4 * 1024 * 1024
        rng = random.Random(7)
        store = BlockStore.create(tmp_path / "s", Polygon(5), 5, block_size, seed=9)

        # 36 MiB == one pentagon stripe -> 20 replicas, 4 blocks in the one
        # file of each of the 5 node dirs
        exact = rng.randbytes(9 * block_size)
        src = tmp_path / "exact.bin"
        src.write_bytes(exact)
        manifest = store.put(src)
        assert manifest.stripe_count == 1
        files = sorted(store.root.glob("n*/*.blk"))
        assert [f.relative_to(store.root).as_posix() for f in files] == [
            f"n{k}/blocks.blk" for k in range(5)
        ]
        assert all(f.stat().st_size == 4 * block_size for f in files)

        # 37 MiB -> 2 stripes with recorded padding
        padded = rng.randbytes(37 * 1024 * 1024)
        src2 = tmp_path / "padded.bin"
        src2.write_bytes(padded)
        manifest2 = store.put(src2)
        assert manifest2.stripe_count == 2
        assert store.get("padded.bin") == padded

        # roundtrip under every recoverable down-set, repair bandwidth == plans
        total_stripes = 3
        for size in (1, 2):
            for pattern in itertools.combinations(range(5), size):
                for node in pattern:
                    store.kill_node(node)
                assert store.get("exact.bin") == exact, pattern
                result = store.repair()
                expected = total_stripes * plan_repair(Polygon(5), set(pattern)).bandwidth_blocks
                assert result.bandwidth_blocks == expected, pattern
                assert store.fsck().is_clean
        with pytest.raises(UnrecoverableError):
            for node in (0, 1, 2):
                store.kill_node(node)
            store.get("exact.bin")


def test_criterion_8_remote_traffic_tracks_locality_gap(locality_rows):
    with criterion(8, "excess remote traffic tracks the locality gap within 10%"):
        summary = summarize_locality(locality_rows)

        def cell(scheme, load):
            return next(
                c
                for c in summary
                if c["scheme"] == scheme
                and c["scheduler"] == "delay"
                and c["slots"] == 2
                and c["load_pct"] == load
            )

        for load in (50, 75, 100):
            rep = cell("2-rep", load)
            pent = cell("pentagon", load)
            tasks = int(load / 100 * 25 * 2)
            excess_remote = pent["remote_mean"] - rep["remote_mean"]
            gap_tasks = (rep["locality_mean"] - pent["locality_mean"]) / 100.0 * tasks
            if excess_remote == 0 and gap_tasks == 0:
                continue
            denom = max(abs(excess_remote), abs(gap_tasks))
            assert abs(excess_remote - gap_tasks) <= 0.10 * denom, (
                load,
                excess_remote,
                gap_tasks,
            )
