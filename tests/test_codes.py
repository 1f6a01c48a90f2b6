import ast
import functools
import itertools
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode import codes
from polycode.codes import (
    BlockAvailableError,
    BlockRole,
    ChecksumMismatchError,
    CodeError,
    HeptagonLocal,
    InconsistentStripeError,
    MissingBlockError,
    PartialParity,
    Polygon,
    RaidMirror,
    Replication,
    Transfer,
    UnrecoverableError,
    WholeCopy,
    build_layout,
    decode_stripe,
    encode_stripe,
    execute_plan,
    is_recoverable,
    is_recoverable_mask,
    parse_scheme,
    plan_degraded_read,
    plan_repair,
    polygon_edges,
    storage_overhead,
    tolerance,
)
from polycode.gf256 import scale_bytes

from bandwidth_table import bandwidth_lines
from helpers import can_decode_from, execute_plan_reference, make_checked_reader, oracle_decode

ALL_SCHEMES = [
    Replication(2),
    Replication(3),
    Polygon(5),
    Polygon(7),
    HeptagonLocal(),
    RaidMirror(9),
    RaidMirror(11),
]


def geometry(scheme):
    return codes._geometry(scheme)


def full_blocks(scheme, rng, size=256):
    data = [rng.randbytes(size) for _ in range(scheme.data_block_count)]
    return data, encode_stripe(scheme, data)


def surviving_view(scheme, blocks, pattern):
    geo = geometry(scheme)
    return {
        n: {b: blocks[b] for b in geo.blocks_on[n]}
        for n in range(scheme.code_length)
        if n not in pattern
    }


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def present_view(scheme, blocks, pattern):
    geo = geometry(scheme)
    return {
        b: blocks[b]
        for b, slots in geo.placements.items()
        if any(s not in pattern for s in slots)
    }


# ---------------------------------------------------------------------------
# schemes and layouts


@pytest.mark.parametrize(
    "scheme,overhead,length,data,stored",
    [
        (Polygon(5), Fraction(20, 9), 5, 9, 20),
        (Polygon(7), Fraction(42, 20), 7, 20, 42),
        (HeptagonLocal(), Fraction(86, 40), 15, 40, 86),
        (RaidMirror(9), Fraction(20, 9), 20, 9, 20),
        (RaidMirror(11), Fraction(24, 11), 24, 11, 24),
        (Replication(3), Fraction(3), 3, 1, 3),
        (Replication(2), Fraction(2), 2, 1, 2),
    ],
)
def test_scheme_shapes(scheme, overhead, length, data, stored):
    assert storage_overhead(scheme) == overhead
    assert scheme.code_length == length
    assert scheme.data_block_count == data
    assert scheme.stored_block_count == stored


def test_parse_scheme_roundtrip():
    for scheme in ALL_SCHEMES + [Polygon(6), Replication(4)]:
        assert parse_scheme(scheme.name) == scheme
    with pytest.raises(ValueError):
        parse_scheme("nonagon")


def test_schemes_and_plans_compare_by_class_and_stay_as_cached():
    """Schemes key the geometry, parse and plan caches, so two schemes of
    different classes with equal fields differ, and neither a scheme nor a
    cached plan can be changed in place."""
    assert Polygon(5) != RaidMirror(5) and geometry(Polygon(5)) is not geometry(RaidMirror(5))
    assert parse_scheme("pentagon") == Polygon(5)
    assert hash(parse_scheme("pentagon")) == hash(Polygon(5))
    plan = plan_repair(Polygon(5), [0])
    assert plan is plan_repair(Polygon(5), [0])
    for record, field in ((Polygon(5), "nodes"), (plan, "transfers"), (plan.transfers[0], "src")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_scheme_validation():
    with pytest.raises(ValueError):
        Polygon(2)
    with pytest.raises(ValueError):
        Replication(0)
    with pytest.raises(ValueError):
        RaidMirror(0)


def test_block_role_strings():
    roles = geometry(HeptagonLocal()).roles
    assert BlockRole("global_parity", 1).as_string() == "global_parity:1"
    assert roles[43].as_string() == "global_parity:1"
    assert {r.as_string().partition(":")[0] for r in roles.values()} == {
        "data", "local_parity", "global_parity"}


def test_pentagon_layout_is_the_edge_construction():
    geo = geometry(Polygon(5))
    assert build_layout(Polygon(5), range(5), seed=0) == (0, 1, 2, 3, 4)
    assert geo.placements[0] == (0, 1)  # edge (0,1)
    assert set(geo.blocks_on[0]) == {0, 1, 2, 3}  # edges (0,1)..(0,4)
    for slot in range(5):
        assert len(geo.blocks_on[slot]) == 4
    roles = geo.roles
    assert sum(1 for r in roles.values() if r.kind == "local_parity") == 1
    assert roles[9] == BlockRole("local_parity", 0)  # last edge (3,4)


def test_polygon_every_block_on_two_nodes():
    for n in (5, 7):
        geo = geometry(Polygon(n))
        for block in geo.roles:
            assert len(set(geo.placements[block])) == 2
        for slot in range(n):
            assert len(geo.blocks_on[slot]) == n - 1


def test_heptagon_local_layout():
    geo = geometry(HeptagonLocal())
    assert build_layout(HeptagonLocal(), range(15), seed=0) == tuple(range(15))
    on_global = geo.blocks_on[14]
    assert len(on_global) == 2
    roles = geo.roles
    assert all(roles[b].kind == "global_parity" for b in on_global)
    # heptagon A on slots 0-6, B on 7-13
    for b in range(21):
        assert set(geo.placements[b]) <= set(range(7))
    for b in range(21, 42):
        assert set(geo.placements[b]) <= set(range(7, 14))
    kinds = [r.kind for r in roles.values()]
    assert kinds.count("data") == 40
    assert kinds.count("local_parity") == 2
    assert kinds.count("global_parity") == 2


@pytest.mark.parametrize("scheme", [Replication(2), Replication(3), RaidMirror(9)])
def test_random_layouts_deterministic_and_distinct(scheme):
    pool = list(range(40))
    a = build_layout(scheme, pool, seed=11)
    b = build_layout(scheme, pool, seed=11)
    assert a == b
    for block, slots in geometry(scheme).placements.items():
        ids = [a[s] for s in slots]
        assert len(set(ids)) == len(ids) == len(slots)


def test_layout_pool_too_small():
    with pytest.raises(ValueError):
        build_layout(Polygon(5), range(4), seed=0)


# ---------------------------------------------------------------------------
# encoding


def test_pentagon_zero_data_gives_zero_parity():
    blocks = encode_stripe(Polygon(5), [bytes(64)] * 9)
    assert blocks[9] == bytes(64)


def test_pentagon_blocks_xor_to_zero():
    rng = random.Random(1)
    _, blocks = full_blocks(Polygon(5), rng)
    assert functools.reduce(xor, blocks.values()) == bytes(256)


def test_heptagon_local_unit_data_globals():
    data = [bytes([1]) * 32] + [bytes(32)] * 39
    blocks = encode_stripe(HeptagonLocal(), data)
    assert blocks[42] == bytes([1]) * 32  # alpha^0 == 1
    assert blocks[43] == bytes([1]) * 32
    assert blocks[20] == bytes([1]) * 32  # local parity of group A
    assert blocks[41] == bytes(32)


def test_heptagon_local_global_coefficients():
    # single nonzero data symbol at index i scales by alpha^i / alpha^{2i}
    from polycode.gf256 import gf_pow, scale_bytes

    for i in (1, 7, 39):
        data = [bytes(16)] * 40
        data[i] = bytes([0x35]) * 16
        blocks = encode_stripe(HeptagonLocal(), data)
        assert blocks[42] == scale_bytes(gf_pow(2, i), data[i])
        assert blocks[43] == scale_bytes(gf_pow(2, 2 * i), data[i])


def test_encode_validation():
    with pytest.raises(ValueError):
        encode_stripe(Polygon(5), [b"x"] * 8)
    with pytest.raises(ValueError):
        encode_stripe(Polygon(5), [b"xx"] * 8 + [b"x"])


# ---------------------------------------------------------------------------
# recoverability and tolerance


def test_pentagon_recoverability_exhaustive():
    scheme = Polygon(5)
    for pattern in itertools.combinations(range(5), 2):
        assert is_recoverable(scheme, pattern)
    for pattern in itertools.combinations(range(5), 3):
        assert not is_recoverable(scheme, pattern)


def test_heptagon_recoverability_exhaustive():
    scheme = Polygon(7)
    for pattern in itertools.combinations(range(7), 2):
        assert is_recoverable(scheme, pattern)
    for pattern in itertools.combinations(range(7), 3):
        assert not is_recoverable(scheme, pattern)


def test_heptagon_local_all_triples_recoverable():
    scheme = HeptagonLocal()
    for pattern in itertools.combinations(range(15), 3):
        assert is_recoverable(scheme, pattern)


@pytest.mark.parametrize(
    "scheme,expected",
    [
        (Polygon(5), 2),
        (Polygon(7), 2),
        (HeptagonLocal(), 3),
        (RaidMirror(9), 3),
        (Replication(2), 1),
        (Replication(3), 2),
        (Replication(1), 0),
        (RaidMirror(11), 3),
    ],
)
def test_tolerance(scheme, expected):
    assert tolerance(scheme) == expected


def test_raidm_fatal_quadruple():
    # both replicas of two distinct blocks -> one XOR equation, two unknowns
    assert not is_recoverable(RaidMirror(9), {0, 1, 2, 3})
    assert is_recoverable(RaidMirror(9), {0, 2, 4, 6})


def test_recoverable_agrees_with_oracle_success():
    rng = random.Random(5)
    for scheme in (Polygon(5), RaidMirror(3), Replication(2)):
        data, blocks = full_blocks(scheme, rng, size=64)
        for size in range(scheme.code_length + 1):
            for pattern in itertools.combinations(range(scheme.code_length), size):
                present = present_view(scheme, blocks, set(pattern))
                if is_recoverable(scheme, pattern):
                    assert oracle_decode(scheme, present) == data
                else:
                    with pytest.raises(UnrecoverableError):
                        oracle_decode(scheme, present)


def test_can_decode_from_direct():
    scheme = Polygon(5)
    assert can_decode_from(scheme, range(9))  # all data, no parity
    assert can_decode_from(scheme, range(1, 10))  # parity replaces one block
    assert not can_decode_from(scheme, range(2, 10))


def _live_blocks(scheme, mask):
    """Blocks with a replica on a slot whose bit in *mask* is clear."""
    placements = codes._geometry(scheme).placements
    return [b for b, slots in placements.items() if any(not mask >> s & 1 for s in slots)]


@pytest.mark.parametrize(
    "name", ["pentagon", "heptagon", "heptagon-local", "3-rep", "raidm-3", "raidm-4"]
)
def test_recoverable_mask_miss_agrees_with_can_decode_from_exhaustive(name, monkeypatch):
    scheme = parse_scheme(name)
    geo = geometry(scheme)
    monkeypatch.setattr(geo, "fate", {})  # every call a miss
    for mask in range(1 << scheme.code_length):
        want = can_decode_from(scheme, _live_blocks(scheme, mask))
        assert is_recoverable_mask(scheme, mask) == want, (name, mask)
    assert len(geo.fate) == 1 << scheme.code_length


@pytest.mark.parametrize("name", ["raidm-9", "raidm-11"])
def test_recoverable_mask_miss_agrees_with_can_decode_from_sampled(name, monkeypatch):
    scheme = parse_scheme(name)
    geo = geometry(scheme)
    monkeypatch.setattr(geo, "fate", {})
    rng = random.Random(name)
    L = scheme.code_length
    fates = set()
    for _ in range(5000):
        # failure counts spread over 0..L, so both answers come up often
        mask = sum(1 << s for s in rng.sample(range(L), rng.randrange(L + 1)))
        want = can_decode_from(scheme, _live_blocks(scheme, mask))
        geo.fate.pop(mask, None)
        assert is_recoverable_mask(scheme, mask) == want, (name, mask)
        fates.add(want)
    assert fates == {True, False}


# ---------------------------------------------------------------------------
# decoding


def test_decode_identity_extraction():
    rng = random.Random(2)
    data, blocks = full_blocks(Polygon(5), rng)
    assert decode_stripe(Polygon(5), surviving_view(Polygon(5), blocks, set()), ()) == data


@pytest.mark.parametrize("pattern", list(itertools.combinations(range(5), 2)))
def test_pentagon_decode_all_double_failures(pattern):
    rng = random.Random(hash(pattern) & 0xFFFF)
    data, blocks = full_blocks(Polygon(5), rng, size=1024)
    out = decode_stripe(Polygon(5), surviving_view(Polygon(5), blocks, set(pattern)), pattern)
    assert out == data
    assert oracle_decode(Polygon(5), present_view(Polygon(5), blocks, set(pattern))) == data


def test_heptagon_local_triple_decode_uses_vandermonde_rows():
    rng = random.Random(9)
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, rng, size=128)
    for pattern in [(0, 1, 2), (4, 5, 6), (7, 8, 12), (2, 3, 6)]:
        out = decode_stripe(scheme, surviving_view(scheme, blocks, set(pattern)), pattern)
        assert out == data


def test_decode_plans_once_per_group(monkeypatch):
    rng = random.Random(10)
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, rng, size=64)
    calls = []
    real = codes.plan_degraded_read

    def counting(scheme, block_id, down, corrupt=()):
        calls.append(block_id)
        return real(scheme, block_id, down, corrupt)

    monkeypatch.setattr(codes, "plan_degraded_read", counting)
    # three nodes of one heptagon: three lost data blocks, one solve
    pattern = (0, 1, 2)
    assert decode_stripe(scheme, surviving_view(scheme, blocks, set(pattern)), pattern) == data
    assert len(calls) == 1, calls


def test_decode_block_left_out_of_surviving_view():
    rng = random.Random(12)
    scheme = Polygon(5)
    data, blocks = full_blocks(scheme, rng, size=64)
    views = surviving_view(scheme, blocks, {0})
    views[1] = {b: v for b, v in views[1].items() if b != 0}  # edge (0,1)
    assert decode_stripe(scheme, views, {0}) == data


def recorded_plans(monkeypatch):
    """The bandwidth of each degraded-read plan made from here on."""
    counts = []
    real = codes.plan_degraded_read

    def recording(*args):
        plan = real(*args)
        counts.append(plan.bandwidth_blocks)
        return plan

    monkeypatch.setattr(codes, "plan_degraded_read", recording)
    return counts


def test_decode_plans_a_block_left_out_where_its_slots_would_be_fatal(monkeypatch):
    # block 4 is edge (1, 2): left out of both live hosts, so slots
    # {0, 1, 2} hold no copy of it, a fatal pattern for a pentagon, yet the
    # blocks that are present still determine the data
    rng = random.Random(14)
    scheme = Polygon(5)
    data, blocks = full_blocks(scheme, rng, size=64)
    views = {
        n: {b: v for b, v in blocks_on.items() if b != 4}
        for n, blocks_on in surviving_view(scheme, blocks, {0}).items()
    }
    assert can_decode_from(scheme, {b for blocks_on in views.values() for b in blocks_on})
    plans = recorded_plans(monkeypatch)
    assert decode_stripe(scheme, views, {0}) == data
    # the parity and the 8 other data blocks, one partial parity from each
    # live slot
    assert plans == [4]


def test_decode_plans_around_a_block_missing_on_live_slots(monkeypatch):
    rng = random.Random(13)
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, rng, size=64)
    plans = recorded_plans(monkeypatch)
    pattern = {0, 1}
    assert decode_stripe(scheme, surviving_view(scheme, blocks, pattern), pattern) == data
    assert plans == [5]  # block 0 from the heptagon's 5 XOR partials
    # block 11 is edge (2, 3): missing on both its live hosts, and the
    # degraded read of block 0 would route through it
    views = {
        n: {b: v for b, v in blocks_on.items() if b != 11}
        for n, blocks_on in surviving_view(scheme, blocks, pattern).items()
    }
    present = {b for blocks_on in views.values() for b in blocks_on}
    assert can_decode_from(scheme, present)
    plans.clear()
    assert decode_stripe(scheme, views, pattern) == data
    # one solve for blocks 0 and 11 from two equations, the heptagon's XOR
    # parity and a global parity, each less the data it covers: 5 partial
    # parities for the first, 11 for the second
    assert plans == [16]


def test_decode_verifies_blocks_the_plan_never_reads():
    rng = random.Random(11)
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, rng, size=64)
    blocks = dict(blocks)
    blocks[42] = bytes(64)  # zero out global parity 0
    # one lost block per group is rebuilt from its XOR relation alone, so
    # only the verification pass can see the bad global parity
    pattern = (0, 1)
    plan = plan_degraded_read(scheme, 0, pattern)
    assert all(isinstance(t.payload, PartialParity) for t in plan.transfers)
    assert 42 not in {b for t in plan.transfers for b, _ in t.payload.terms}
    with pytest.raises(InconsistentStripeError):
        decode_stripe(scheme, surviving_view(scheme, blocks, set(pattern)), pattern)


def test_decode_unrecoverable():
    rng = random.Random(3)
    data, blocks = full_blocks(Polygon(5), rng)
    with pytest.raises(UnrecoverableError):
        decode_stripe(Polygon(5), surviving_view(Polygon(5), blocks, {0, 1, 2}), (0, 1, 2))


def test_decode_detects_corruption():
    rng = random.Random(4)
    data, blocks = full_blocks(Polygon(5), rng)
    views = surviving_view(Polygon(5), blocks, set())
    # flip one byte of one replica of block 0 on node 0
    bad = bytearray(views[0][0])
    bad[0] ^= 0x01
    views[0] = dict(views[0])
    views[0][0] = bytes(bad)
    with pytest.raises(InconsistentStripeError):
        decode_stripe(Polygon(5), views, ())


def test_decode_detects_parity_violation():
    rng = random.Random(6)
    scheme = Polygon(5)
    data, blocks = full_blocks(scheme, rng)
    blocks = dict(blocks)
    blocks[9] = bytes(len(blocks[9]))  # zero out the parity
    views = surviving_view(scheme, blocks, {3})  # parity still present via node 4
    with pytest.raises(InconsistentStripeError):
        decode_stripe(scheme, views, {3})


@pytest.mark.parametrize("pattern,bound", [
    ((0, 1, 2), 0.42),  # the 3-loss plan: 0.409; 0.430 when the check re-encoded the stripe
    ((), 0.335),  # the check alone: 0.325; 0.346 when it re-encoded the stripe
])
def test_heptagon_local_decode_checks_one_parity_at_a_time(pattern, bound):
    """The most memory decode_stripe holds at once beyond its inputs, in
    stripes of 64 KiB blocks.  The check of the surviving blocks feeds the
    decoded data to an encoder and compares each parity as it is made."""
    scheme, width = HeptagonLocal(), 64 * 1024
    data, blocks = full_blocks(scheme, random.Random(14), size=width)
    views = surviving_view(scheme, blocks, set(pattern))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = decode_stripe(scheme, views, pattern)
        peak = (tracemalloc.get_traced_memory()[1] - before) / (40 * width)
    finally:
        tracemalloc.stop()
    assert out == data
    assert peak < bound


# ---------------------------------------------------------------------------
# repair plans


def check_plan_execution(scheme, blocks, plan, pattern):
    geo = geometry(scheme)
    reader = make_checked_reader(present_view(scheme, blocks, pattern))
    recovered = execute_plan(plan, reader)
    lost = {b for n in pattern for b in geo.blocks_on[n]}
    for b in lost:
        assert recovered[b] == blocks[b], f"block {b} mis-repaired for {pattern}"
    return recovered


def test_pentagon_single_repair_bandwidth():
    rng = random.Random(11)
    data, blocks = full_blocks(Polygon(5), rng)
    for node in range(5):
        plan = plan_repair(Polygon(5), {node})
        assert plan.bandwidth_blocks == 4
        assert all(isinstance(t.payload, WholeCopy) for t in plan.transfers)
        check_plan_execution(Polygon(5), blocks, plan, {node})


@pytest.mark.parametrize("n,expected", [(5, 10), (7, 16)])
def test_polygon_double_repair_bandwidth(n, expected):
    rng = random.Random(n)
    scheme = Polygon(n)
    data, blocks = full_blocks(scheme, rng, size=512)
    for pattern in itertools.combinations(range(n), 2):
        plan = plan_repair(scheme, set(pattern))
        assert plan.bandwidth_blocks == expected  # 3(n-2)+1
        check_plan_execution(scheme, blocks, plan, set(pattern))


@pytest.mark.parametrize("n", [5, 7])
def test_double_repair_partials_cover_exactly_once(n):
    scheme = Polygon(n)
    edges = polygon_edges(n)
    for pattern in itertools.combinations(range(n), 2):
        plan = plan_repair(scheme, set(pattern))
        pair_block = edges.index(pattern)
        covered = []
        for t in plan.transfers:
            if isinstance(t.payload, PartialParity):
                assert all(coef == 1 for _, coef in t.payload.terms)
                covered.extend(b for b, _ in t.payload.terms)
        assert sorted(covered) == [b for b in range(len(edges)) if b != pair_block]


def test_heptagon_local_repair_all_patterns_up_to_three():
    rng = random.Random(15)
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, rng, size=64)
    for size in (1, 2, 3):
        for pattern in itertools.combinations(range(15), size):
            plan = plan_repair(scheme, set(pattern))
            check_plan_execution(scheme, blocks, plan, set(pattern))


@pytest.mark.parametrize("group,slots", [(0, set(range(7))), (1, set(range(7, 14)))])
def test_heptagon_local_small_failures_repair_locally(group, slots):
    # one or two failures inside a heptagon move data only within it
    base = 0 if group == 0 else 7
    for pattern in [{base}, {base + 2, base + 5}]:
        plan = plan_repair(HeptagonLocal(), pattern)
        for t in plan.transfers:
            assert t.src in slots and t.dst in slots, (pattern, t)


def test_replication_and_raidm_repair():
    rng = random.Random(21)
    for scheme, pattern in [
        (Replication(3), {0, 2}),
        (RaidMirror(9), {0, 1, 4}),  # block 0 fully lost + block 2 half lost
        (RaidMirror(9), {3}),
    ]:
        data, blocks = full_blocks(scheme, rng, size=64)
        plan = plan_repair(scheme, pattern)
        check_plan_execution(scheme, blocks, plan, pattern)


def test_plan_repair_errors():
    with pytest.raises(UnrecoverableError):
        plan_repair(Polygon(5), {0, 1, 2})
    rng = random.Random(22)
    # recoverable patterns beyond 3 heptagon-local losses or the tolerance
    # are planned like any other
    for scheme, pattern in [(HeptagonLocal(), {0, 1, 7, 8}), (RaidMirror(9), {0, 2, 4, 6})]:
        data, blocks = full_blocks(scheme, rng, size=16)
        check_plan_execution(scheme, blocks, plan_repair(scheme, pattern), pattern)
    assert plan_repair(RaidMirror(9), {0, 2, 4, 6}).bandwidth_blocks == 4
    with pytest.raises(ValueError):
        plan_repair(Polygon(5), {9})
    assert plan_repair(Polygon(5), set()).bandwidth_blocks == 0


def _recoverable_masks(scheme, sample=None):
    """Every recoverable failure mask of *scheme*, or of *sample* masks
    drawn with their failure counts spread over 0..L."""
    L = scheme.code_length
    if sample is None:
        masks = range(1 << L)
    else:
        rng = random.Random(scheme.name)
        masks = [
            sum(1 << s for s in rng.sample(range(L), rng.randrange(L + 1)))
            for _ in range(sample)
        ]
    return [m for m in masks if is_recoverable_mask(scheme, m)]


@pytest.mark.parametrize(
    "name,sample",
    [("heptagon-local", None), ("raidm-3", None), ("raidm-5", None), ("raidm-9", 3000)],
)
def test_every_recoverable_pattern_gets_a_plan(name, sample):
    # repair restores every lost block of every recoverable mask, and every
    # 16th mask's degraded reads deliver each fully lost block
    scheme = parse_scheme(name)
    geo = geometry(scheme)
    data, blocks = full_blocks(scheme, random.Random(name), size=8)
    masks = _recoverable_masks(scheme, sample)
    for k, mask in enumerate(masks):
        down = {s for s in range(scheme.code_length) if mask >> s & 1}
        check_plan_execution(scheme, blocks, plan_repair(scheme, down), down)
        if k % 16:
            continue
        reader = make_checked_reader(present_view(scheme, blocks, down))
        for b, slots in geo.placements.items():
            if all(s in down for s in slots):
                plan = plan_degraded_read(scheme, b, down)
                assert execute_plan(plan, reader)[b] == blocks[b], (name, down, b)
    assert len(masks) > 100


# ---------------------------------------------------------------------------
# degraded reads


def test_pentagon_degraded_read_three_transfers():
    rng = random.Random(31)
    scheme = Polygon(5)
    data, blocks = full_blocks(scheme, rng, size=2048)
    plan = plan_degraded_read(scheme, 0, {0, 1})  # block 0 == edge (0,1)
    assert plan.bandwidth_blocks == 3
    reader = make_checked_reader(present_view(scheme, blocks, {0, 1}))
    assert execute_plan(plan, reader)[0] == blocks[0]


def test_raidm_degraded_read_nine_transfers():
    rng = random.Random(32)
    scheme = RaidMirror(9)
    data, blocks = full_blocks(scheme, rng, size=64)
    plan = plan_degraded_read(scheme, 0, {0, 1})
    assert plan.bandwidth_blocks == 9
    reader = make_checked_reader(present_view(scheme, blocks, {0, 1}))
    assert execute_plan(plan, reader)[0] == blocks[0]


def test_heptagon_degraded_read_five_transfers():
    scheme = Polygon(7)
    rng = random.Random(33)
    data, blocks = full_blocks(scheme, rng, size=64)
    plan = plan_degraded_read(scheme, 0, {0, 1})
    assert plan.bandwidth_blocks == 5  # n - 2
    reader = make_checked_reader(present_view(scheme, blocks, {0, 1}))
    assert execute_plan(plan, reader)[0] == blocks[0]


def test_heptagon_local_degraded_reads_exhaustive():
    rng = random.Random(34)
    scheme = HeptagonLocal()
    geo = geometry(scheme)
    data, blocks = full_blocks(scheme, rng, size=64)
    planned = 0
    # no pattern of more than 5 failed nodes is recoverable
    for size in range(1, 6):
        for pattern in itertools.combinations(range(15), size):
            down = set(pattern)
            if not is_recoverable(scheme, down):
                continue
            reader = make_checked_reader(present_view(scheme, blocks, down))
            for block, slots in geo.placements.items():
                if all(s in down for s in slots):
                    plan = plan_degraded_read(scheme, block, down)
                    assert not [t for t in plan.transfers if t.src in down], (pattern, block)
                    recovered = execute_plan(plan, reader)
                    assert block in recovered, (pattern, block)
                    for b, body in recovered.items():
                        assert body == blocks[b], (pattern, block, b)
                    planned += 1
    assert planned == 11678


def test_degraded_read_errors():
    with pytest.raises(BlockAvailableError):
        plan_degraded_read(Polygon(5), 0, {0})  # node 1 still hosts it
    with pytest.raises(UnrecoverableError):
        plan_degraded_read(Replication(2), 0, {0, 1})
    with pytest.raises(UnrecoverableError):
        plan_degraded_read(Polygon(5), 0, {0, 1, 2})


def _bandwidths(lines) -> dict:
    """(scheme, down slots) -> (repair bandwidth, {block: degraded-read bandwidth})"""
    table = {}
    for line in lines:
        if not line.startswith("#"):
            name, down, repair, *reads = line.split()
            table[name, down] = int(repair), {b: int(n) for b, n in (r.split(":") for r in reads)}
    return table


def test_no_plan_moves_more_than_before_the_planners_were_one():
    """Each repair and each degraded read of a fully lost block, on every
    recoverable pattern of 1 to tolerance slots of every report scheme,
    moves no more blocks than in the table made before the two planners
    became one.  Only the reads of the two data blocks a heptagon-local
    polygon loses with its last two nodes and one more got cheaper: 24 ->
    20, as the lost local parity is no longer solved beside them."""
    before = _bandwidths((Path(__file__).parent / "bandwidth_table.txt").read_text().splitlines())
    now = _bandwidths(bandwidth_lines())
    assert now.keys() == before.keys()
    fewer = []
    for key, (repair, reads) in now.items():
        old_repair, old_reads = before[key]
        assert repair <= old_repair and reads.keys() == old_reads.keys(), key
        assert all(reads[b] <= old_reads[b] for b in reads), (key, reads, old_reads)
        fewer += [(key, reads[b], old_reads[b]) for b in reads if reads[b] < old_reads[b]]
        fewer += [(key, repair, old_repair)] if repair < old_repair else []
    assert len(fewer) == 20 and {(k[0], new, old) for k, new, old in fewer} == {
        ("heptagon-local", 20, 24)}


def test_a_solve_sends_one_partial_parity_per_source_slot():
    # blocks 0 and 11 lost, on slots 0-1 down and 2-3 corrupt: two
    # equations, each one partial parity from each slot holding its terms
    plan = plan_degraded_read(HeptagonLocal(), 0, {0, 1}, [(11, 2), (11, 3)])
    assert plan.bandwidth_blocks == 16 <= 22  # at most one transfer per (slot, equation)
    assert [t.src for t in plan.transfers] == [2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14]


@st.composite
def damage(draw):
    """A scheme, its down slots, the corrupt replicas on live slots, and
    corrupt replicas on down slots, which are lost with them anyway."""
    scheme = parse_scheme(draw(st.sampled_from(
        ["pentagon", "heptagon", "heptagon-local", "polygon-6", "raidm-3"])))
    placements = geometry(scheme).placements
    down = draw(st.sets(st.integers(0, scheme.code_length - 1), max_size=3))
    replicas = [(b, s) for b, slots in placements.items() for s in slots]
    hurt = draw(st.sets(st.sampled_from(replicas), max_size=4))
    return scheme, down, {r for r in hurt if r[1] not in down}, {r for r in hurt if r[1] in down}


@settings(max_examples=200, deadline=None)
@given(damage(), st.integers(0, 2**31))
def test_plans_restore_every_damaged_replica_when_the_good_blocks_decode(case, seed):
    scheme, down, corrupt, on_down = case
    geo = geometry(scheme)
    data, blocks = full_blocks(scheme, random.Random(seed), size=16)
    damaged = {(b, s) for b, slots in geo.placements.items() for s in slots if s in down}
    damaged |= corrupt
    lost = [b for b, slots in geo.placements.items() if all((b, s) in damaged for s in slots)]
    if not can_decode_from(scheme, set(geo.placements) - set(lost)):
        with pytest.raises(UnrecoverableError):
            plan_repair(scheme, down, corrupt)
        for b in lost:
            with pytest.raises(UnrecoverableError):
                plan_degraded_read(scheme, b, down, corrupt)
        return
    # serves only good replicas: any plan that reads a lost block fails
    reader = make_checked_reader({b: v for b, v in blocks.items() if b not in lost})
    plan = plan_repair(scheme, down, corrupt)
    assert plan.bandwidth_blocks == sum(t.src != t.dst for t in plan.transfers)
    recovered = execute_plan(plan, reader)
    assert {b for b, _ in damaged} <= set(recovered)
    assert all(recovered[b] == blocks[b] for b in recovered)
    # a corrupt replica on a down slot changes no plan, so with none on a
    # live slot the plan is the one for corrupt=()
    assert plan_repair(scheme, down, corrupt | on_down) == plan
    for b in lost:
        read = plan_degraded_read(scheme, b, down, corrupt)
        assert read.bandwidth_blocks == sum(t.src != t.dst for t in read.transfers)
        got = execute_plan(read, reader)
        assert b in got and all(got[x] == blocks[x] for x in got)
        assert plan_degraded_read(scheme, b, down, corrupt | on_down) == read


def test_planners_refuse_a_corrupt_replica_that_is_not_there():
    with pytest.raises(ValueError):
        plan_repair(Polygon(5), {0}, [(4, 3)])  # block 4 is edge (1, 2)
    with pytest.raises(BlockAvailableError):
        plan_degraded_read(Polygon(5), 4, {0}, [(4, 1)])  # slot 2 holds it good


def test_a_plan_is_made_once_per_damage():
    """The planners key a plan by its damage as sets: down slots in any
    order, and corrupt pairs in any order, with one on a down slot left
    out, give the same plan object, and malformed damage is refused on
    every call."""
    s = Polygon(5)
    assert plan_repair(s, [1, 0]) is plan_repair(s, (0, 1))
    # block 0, edge (0, 1), is corrupt on both hosts; block 1, edge (0, 2),
    # is on down slot 2
    assert plan_degraded_read(s, 0, [2], [(0, 1), (0, 0)]) is plan_degraded_read(
        s, 0, {2}, [(1, 2), (0, 0), (0, 1)])
    for _ in range(2):
        with pytest.raises(ValueError):
            plan_repair(s, [5])
        with pytest.raises(ValueError):
            plan_repair(s, [0], [(4, 3)])  # block 4 is edge (1, 2)


def test_node_shaped_plans_read_no_corrupt_replica():
    """With 1-2 slots down and one corrupt replica on a live slot of a block
    that keeps a good one, no transfer from that slot, a whole copy or a
    partial parity, names the corrupt block: the plans read good replicas."""
    # b7 is edge (2, 3): slot 3's partial carries it, not slot 2's
    assert plan_repair(Polygon(5), {0, 1}, [(7, 2)]).transfers[6:8] == (
        Transfer(2, 0, PartialParity(((1, 1), (4, 1), (8, 1)))),
        Transfer(3, 0, PartialParity(((2, 1), (5, 1), (7, 1), (9, 1)))))
    checked = 0
    for scheme in (Polygon(5), Polygon(7), HeptagonLocal()):
        geo = geometry(scheme)
        for size in (1, 2):
            for down in map(set, itertools.combinations(range(scheme.code_length), size)):
                if not is_recoverable(scheme, down):
                    continue
                lost = [x for x, slots in geo.placements.items() if set(slots) <= down]
                for b, s in [(b, s) for b, slots in geo.placements.items() for s in slots
                             if not set(slots) <= down | {s}]:
                    plans = [plan_repair(scheme, down, [(b, s)]),
                             *(plan_degraded_read(scheme, x, down, [(b, s)]) for x in lost)]
                    for t in (t for plan in plans for t in plan.transfers if t.src == s):
                        named = ({t.payload.block_id} if isinstance(t.payload, WholeCopy)
                                 else {x for x, _ in t.payload.terms})
                        assert b not in named, (scheme, down, (b, s), t)
                    checked += len(plans)
    assert checked == 16028


# ---------------------------------------------------------------------------
# plan execution plumbing


def test_execute_empty_plan():
    plan = plan_repair(Polygon(5), set())
    assert execute_plan(plan, make_checked_reader({})) == {}


def test_execute_plan_checksum_mismatch():
    rng = random.Random(41)
    scheme = Polygon(5)
    data, blocks = full_blocks(scheme, rng)
    pattern = {0, 1}
    source = dict(present_view(scheme, blocks, pattern))
    reader = make_checked_reader(source)
    # corrupt one source block after the reader snapshots its CRC
    victim = next(iter(source))
    source[victim] = b"\x00" * len(source[victim])
    plan = plan_repair(scheme, pattern)
    with pytest.raises(ChecksumMismatchError):
        execute_plan(plan, reader)


def test_execute_plan_missing_block():
    scheme = Polygon(5)
    plan = plan_repair(scheme, {0})
    with pytest.raises(MissingBlockError):
        execute_plan(plan, make_checked_reader({}))


def count_scalings(monkeypatch) -> list[int]:
    """Patch ``codes.scale_bytes`` to record each coefficient it scales by."""
    scalings = []
    real_scale = codes.scale_bytes

    def counting_scale(coef, body):
        scalings.append(coef)
        return real_scale(coef, body)

    monkeypatch.setattr(codes, "scale_bytes", counting_scale)
    return scalings


def test_heptagon_local_triple_plans_read_once_and_scale_per_coefficient(monkeypatch):
    # every surviving block the plans touch is read once; 83 scalings is the
    # bound of scaling per term and coefficient, the next test pins planes'
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, random.Random(42), size=64)
    down = {0, 1, 2}
    scalings = count_scalings(monkeypatch)
    source = make_checked_reader(present_view(scheme, blocks, down))
    reads = []

    def reader(block_id):
        reads.append(block_id)
        return source(block_id)

    recovered = execute_plan(plan_degraded_read(scheme, 0, down), reader)
    assert recovered[0] == blocks[0]
    assert len(scalings) <= 83
    assert len(reads) == 40 == len(set(reads))

    scalings.clear()
    reads.clear()
    recovered = execute_plan(plan_repair(scheme, down), reader)
    for b in {b for n in down for b in geometry(scheme).blocks_on[n]}:
        assert recovered[b] == blocks[b]
    assert len(scalings) <= 83
    assert len(reads) == len(set(reads))


def test_heptagon_local_operations_scale_a_plane_per_wide_target(monkeypatch):
    # one scaling per (plane, wide target) at most: 8 planes for the two
    # global parities and 9 for a triple solve's three recoveries; per term
    # and coefficient it was 78 for encode, 83 for each plan and 161 for decode
    scheme = HeptagonLocal()
    data, blocks = full_blocks(scheme, random.Random(43), size=64)
    down = {0, 1, 2}
    reader = make_checked_reader(present_view(scheme, blocks, down))
    scalings = count_scalings(monkeypatch)
    assert encode_stripe(scheme, data) == blocks
    assert len(scalings) <= 16
    scalings.clear()
    assert execute_plan(plan_degraded_read(scheme, 0, down), reader)[0] == blocks[0]
    assert len(scalings) <= 24
    scalings.clear()
    recovered = execute_plan(plan_repair(scheme, down), reader)
    assert all(recovered[b] == blocks[b] for n in down for b in geometry(scheme).blocks_on[n])
    assert len(scalings) <= 24
    scalings.clear()
    assert decode_stripe(scheme, surviving_view(scheme, blocks, down), down) == data
    assert len(scalings) <= 40


def test_global_parities_share_eight_planes():
    geo = geometry(HeptagonLocal())
    sums = codes._Sums({b: list(enumerate(geo.rows[b])) for b in geo.global_blocks}, 1)
    assert len(sums._rows) == 8
    for i in range(39):
        sums.feed(i, b"\x01")
    with pytest.raises(ValueError):  # a plane still lacks data block 39
        sums.take(geo.global_blocks[0])


def run_executor(execute, plan, present, victim=None, corrupt=False):
    """(result or exception type, blocks read in order) of one run of
    *execute*; *victim* is left out of *present*, or corrupted after the
    reader takes its CRCs."""
    source = dict(present)
    if victim is not None and not corrupt:
        del source[victim]
    checked = make_checked_reader(source)
    if corrupt:
        source[victim] = bytes(len(source[victim]))
    reads = []

    def reader(block_id):
        reads.append(block_id)
        return checked(block_id)

    try:
        return execute(plan, reader), reads
    except CodeError as exc:
        return type(exc), reads


def executor_damages(scheme, limit):
    """(down slots, corrupt replicas) of every set of 1 to *limit* down
    slots, and, with at most one slot down, one corrupt replica of each
    block on its first live host: those of a block whose other host is
    down lose it, and the others leave it a good twin."""
    placements = geometry(scheme).placements
    for size in range(limit + 1):
        for down in map(set, itertools.combinations(range(scheme.code_length), size)):
            if size:
                yield down, set()
            if size <= 1:
                for b, slots in placements.items():
                    live = [s for s in slots if s not in down]
                    if live:
                        yield down, {(b, live[0])}


@pytest.mark.parametrize(
    "scheme", [HeptagonLocal(), Polygon(5), Polygon(7), RaidMirror(3)], ids=lambda s: s.name
)
def test_execute_plan_matches_reference_executor(scheme):
    # every recoverable repair and degraded-read pattern up to 3 losses
    # (heptagon-local) or the tolerance, and mixed damage of a corrupt
    # replica on a live slot: the same bytes, the same blocks read in the
    # same order, and the same error for a missing or corrupt source, here
    # the last one read and the first
    geo = geometry(scheme)
    data, blocks = full_blocks(scheme, random.Random(52), size=16)
    limit = 3 if isinstance(scheme, HeptagonLocal) else tolerance(scheme)
    plans = mixed = 0
    for down, corrupt in executor_damages(scheme, limit):
        lost = [b for b, slots in geo.placements.items()
                if all(s in down or (b, s) in corrupt for s in slots)]
        present = {b: v for b, v in blocks.items() if b not in lost}
        if not can_decode_from(scheme, present):
            continue
        for plan in [plan_repair(scheme, down, corrupt)] + [
            plan_degraded_read(scheme, b, down, corrupt) for b in lost
        ]:
            expected, reads = run_executor(execute_plan_reference, plan, present)
            assert run_executor(execute_plan, plan, present) == (expected, reads)
            for victim, bad in [(reads[-1], False), (reads[0], True)]:
                ref = run_executor(execute_plan_reference, plan, present, victim, bad)
                new = run_executor(execute_plan, plan, present, victim, bad)
                assert new[0] == ref[0] in (MissingBlockError, ChecksumMismatchError)
            plans += 1
            mixed += bool(corrupt)
    assert plans > mixed > 0


COEFS = st.one_of(st.sampled_from([0, 1, 2, 0x8E]), st.integers(0, 255))


@st.composite
def blocks_and_terms(draw):
    width = draw(st.sampled_from([0, 1, 7, 16]))
    count = draw(st.integers(1, 5))
    bodies = [draw(st.binary(min_size=width, max_size=width)) for _ in range(count)]
    terms = draw(st.lists(st.tuples(st.integers(0, count - 1), COEFS), max_size=12))
    return width, bodies, terms


def naive_sum(width, bodies, terms):
    return functools.reduce(
        xor, (scale_bytes(c, bodies[k]) for k, c in terms), bytes(width)
    )


@settings(max_examples=150, deadline=None)
@given(blocks_and_terms())
def test_sums_match_per_term_scaling(case):
    width, bodies, terms = case
    sums = codes._Sums({"t": terms}, width)
    for k, body in enumerate(bodies):
        sums.feed(k, body)
    assert sums.take("t").to_bytes(width, "little") == naive_sum(width, bodies, terms)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([0, 1, 7]),
    st.integers(1, 24).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1), COEFS), max_size=40)
    ),
)
def test_a_sum_scales_at_most_min_8_and_its_distinct_coefficients(width, terms):
    # one scaling per plane whose coefficient is not 1: a lone target spans
    # at most 8 planes, and at most d for d distinct coefficients above 1
    bodies = [random.Random(k).randbytes(width) for k in range(24)]
    with pytest.MonkeyPatch.context() as mp:
        scalings = count_scalings(mp)
        sums = codes._Sums({"t": terms}, width)
        for k, body in enumerate(bodies):
            sums.feed(k, body)
        value = sums.take("t")
    assert len(scalings) <= min(8, len({c for _, c in terms if c > 1}))
    assert value.to_bytes(width, "little") == naive_sum(width, bodies, terms)


@st.composite
def wide_sums(draw):
    width = draw(st.sampled_from([0, 1, 7, 16]))
    count = draw(st.integers(1, 24))
    bodies = [draw(st.binary(min_size=width, max_size=width)) for _ in range(count)]
    key = st.integers(0, count - 1)
    pool = draw(st.lists(st.integers(2, 255), min_size=1, max_size=4))
    mixed = st.tuples(key, st.one_of(st.sampled_from([0, 1]), st.sampled_from(pool), COEFS))
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        # most targets get 9+ distinct coefficients above 1, which makes them wide
        least = draw(st.sampled_from([0, 9, 9, 9]))
        spread = draw(st.lists(st.integers(2, 255), min_size=least, max_size=20, unique=True))
        rest = draw(st.lists(mixed, min_size=max(0, 9 - len(spread)), max_size=40 - len(spread)))
        targets.append(draw(st.permutations([(draw(key), c) for c in spread] + rest)))
    return width, bodies, targets


@settings(max_examples=150, deadline=None)
@given(wide_sums())
def test_wide_sums_match_per_term_scaling(case):
    # 1-4 targets of 9-40 terms over shared inputs, repeated within a
    # target, with 0, 1 and repeated coefficients
    width, bodies, targets = case
    sums = codes._Sums(dict(enumerate(targets)), width)
    for k, body in enumerate(bodies):
        sums.feed(k, body)
    for t, terms in enumerate(targets):
        assert sums.take(t).to_bytes(width, "little") == naive_sum(width, bodies, terms)


@settings(max_examples=100, deadline=None)
@given(
    blocks_and_terms(),
    st.lists(st.lists(st.tuples(st.integers(0, 2), COEFS), min_size=1, max_size=6), max_size=3),
)
def test_execute_plan_matches_per_term_scaling(case, recovery_terms):
    # three partial parities over the source blocks, then recoveries that
    # combine them, added through the plan builder, which writes their
    # forms; the source terms are reused so keys repeat across sums
    width, bodies, terms = case
    parts = [terms[i::3] or [(0, 1)] for i in range(3)]
    builder = codes._PlanBuilder(Polygon(5), frozenset(), frozenset())
    for p in parts:
        builder.add(0, 1, PartialParity(tuple(p)))
    for j, t in enumerate(recovery_terms):
        builder.recover(100 + j, tuple(t), 1)
    plan = builder.done()
    assert plan.sources == tuple(dict.fromkeys(k for p in parts for k, _ in p))
    recovered = execute_plan(plan, make_checked_reader(dict(enumerate(bodies))))
    sums = [naive_sum(width, bodies, p) for p in parts]
    for j, t in enumerate(recovery_terms):
        assert recovered[100 + j] == naive_sum(width, sums, t)


# ---------------------------------------------------------------------------
# property-based roundtrips


@st.composite
def scheme_pattern_and_data(draw):
    scheme = draw(st.sampled_from([Polygon(5), Polygon(7), HeptagonLocal(), RaidMirror(5), Replication(3)]))
    max_size = {Polygon(5): 2, Polygon(7): 2, HeptagonLocal(): 3}.get(scheme, tolerance(scheme))
    size = draw(st.integers(0, max_size))
    pattern = frozenset(draw(st.permutations(range(scheme.code_length)))[:size])
    payload = draw(st.integers(0, 2**32 - 1))
    return scheme, pattern, payload


@settings(max_examples=60, deadline=None)
@given(scheme_pattern_and_data())
def test_roundtrip_property(case):
    scheme, pattern, payload_seed = case
    rng = random.Random(payload_seed)
    data, blocks = full_blocks(scheme, rng, size=96)
    out = decode_stripe(scheme, surviving_view(scheme, blocks, pattern), pattern)
    assert out == data
    assert oracle_decode(scheme, present_view(scheme, blocks, pattern)) == data


# ---------------------------------------------------------------------------
# structure


def call_sites(matches, cls: str, method: str) -> tuple[int, list[str]]:
    """Calls in ``src/polycode`` for which *matches* holds: how many sit in
    method *method* of class *cls*, and where the others are."""
    inside, outside = 0, []
    for path in sorted(Path(codes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == cls
            for fn in c.body
            if isinstance(fn, ast.FunctionDef) and fn.name == method
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and matches(node):
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    return inside, outside


def test_only_the_geometry_tells_scheme_classes_apart():
    """``isinstance`` names a scheme class only in ``_Geometry.__init__``:
    every other layer reads a scheme's kind from its geometry."""
    classes = {"Replication", "RaidMirror", "Polygon", "HeptagonLocal"}

    def names_a_scheme_class(call):
        if ast.unparse(call.func) != "isinstance":
            return False
        names = {
            getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(call.args[1])
        }
        return bool(names & classes)

    inside, outside = call_sites(names_a_scheme_class, "_Geometry", "__init__")
    assert inside > 0 and outside == []


def test_no_scheme_class_states_its_own_counts():
    """A scheme class keeps its parameters, name and checks; its counts
    come from its geometry, through the one definition the classes share."""
    counts = {"code_length", "data_block_count", "block_count", "stored_block_count"}
    classes = {cls.__name__ for cls in codes.Scheme.__args__}

    def names_bound(stmt) -> set[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return {stmt.name}
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        return {t.id for t in targets if isinstance(t, ast.Name)}

    tree = ast.parse(Path(codes.__file__).read_text())
    found = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    stated = sorted(f"{node.name}.{name}" for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name in classes
                    for stmt in node.body for name in names_bound(stmt) & counts)
    assert len(classes) == 4 and classes <= found
    assert stated == []


def test_every_definition_is_named_again():
    """Each function, method and class that ``src/polycode`` defines, dunder
    names aside, is named at least once more in the package or in
    ``perfbench``, whose tracer names its targets in strings.  A definition
    that only the tests name is dead."""
    package = sorted(Path(codes.__file__).parent.glob("*.py"))
    perfbench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in package + perfbench)))
    defined = {
        node.name
        for path in package
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
    }
    assert perfbench and len(defined) > 100
    assert sorted(name for name in defined if words[name] < 2) == []


def test_only_the_bit_planes_scale_blocks():
    """``scale_bytes`` is called only where ``_Sums`` spreads its planes:
    every scaled sum goes through them."""
    inside, outside = call_sites(
        lambda call: ast.unparse(call.func).split(".")[-1] == "scale_bytes", "_Sums", "_spread"
    )
    assert inside == 1 and outside == []
