import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode.cli import REPORT_SCHEMES
from polycode.codes import HeptagonLocal, Polygon, RaidMirror, Replication, parse_scheme
from polycode.mapsched import (
    LOCALITY_COLUMNS,
    SCHEDULERS,
    SUMMARY_COLUMNS,
    Assignment,
    ClusterModel,
    OverloadError,
    Workload,
    _check_capacity,
    _fill_remote,
    _sample_range,
    _shuffle,
    build_cluster,
    generate_workload,
    locality_sweep,
    run_scheduler,
    schedule_delay,
    schedule_maxmatch,
    schedule_peeling,
    summarize_locality,
)

from helpers import build_cluster_reference, delay_reference, maxmatch_reference


def make_cluster(catalog, nodes, slots):
    return ClusterModel(nodes, slots, {b: tuple(sorted(h)) for b, h in catalog.items()})


def occupancy_ok(cluster, assignment):
    counts = collections.Counter(assignment.node_of)
    return all(c <= cluster.slots_per_node for c in counts.values())


# ---------------------------------------------------------------------------
# cluster building


def test_pentagon_cluster_structure():
    cluster = build_cluster(Polygon(5), 25, 4, stripes=5, seed=3)
    assert len(cluster.catalog) == 50
    incidences = collections.Counter()
    for hosts in cluster.catalog.values():
        assert len(hosts) == 2
        for h in hosts:
            incidences[h] += 1
    # five disjoint windows, one stripe each: 4 blocks per node
    assert set(incidences.values()) == {4}
    assert len(incidences) == 25


def test_replication_cluster():
    cluster = build_cluster(Replication(2), 25, 4, stripes=100, seed=4)
    assert len(cluster.catalog) == 100
    for hosts in cluster.catalog.values():
        assert len(hosts) == 2


def test_raidm_cluster():
    cluster = build_cluster(RaidMirror(9), 25, 4, stripes=10, seed=4)
    assert len(cluster.catalog) == 100  # 10 blocks per stripe


def test_heptagon_local_cluster_excludes_global_node():
    cluster = build_cluster(HeptagonLocal(), 25, 4, stripes=4, seed=5)
    assert len(cluster.catalog) == 4 * 42  # two heptagons, no global parities
    hosts = {h for hset in cluster.catalog.values() for h in hset}
    assert len(hosts) <= 25


def test_cluster_determinism():
    a = build_cluster(Polygon(5), 25, 4, stripes=20, seed=9)
    b = build_cluster(Polygon(5), 25, 4, stripes=20, seed=9)
    assert a == b
    c = build_cluster(Polygon(5), 25, 4, stripes=20, seed=10)
    assert a != c


def test_cluster_validation():
    with pytest.raises(ValueError):
        build_cluster(Polygon(5), 4, 4, stripes=1, seed=0)
    with pytest.raises(ValueError):
        build_cluster(HeptagonLocal(), 13, 4, stripes=1, seed=0)  # needs 14
    with pytest.raises(ValueError):
        build_cluster(Polygon(5), 25, 0, stripes=1, seed=0)


# ---------------------------------------------------------------------------
# workloads


def test_workload_counts_match_load_definition():
    cluster = build_cluster(Replication(2), 100, 4, stripes=200, seed=1)
    workload = generate_workload(cluster, 62.5, seed=2)
    assert len(workload.tasks) == 250
    cluster = build_cluster(Replication(2), 25, 2, stripes=50, seed=1)
    assert len(generate_workload(cluster, 100, seed=2).tasks) == 50


def test_workload_determinism_and_validation():
    cluster = build_cluster(Polygon(5), 25, 4, stripes=10, seed=3)
    a = generate_workload(cluster, 75, seed=4)
    assert a == generate_workload(cluster, 75, seed=4)
    assert all(b in cluster.catalog for b in a.tasks)
    with pytest.raises(ValueError):
        generate_workload(cluster, 0, seed=1)
    with pytest.raises(ValueError):
        generate_workload(cluster, 201, seed=1)
    empty = ClusterModel(4, 2, {})
    with pytest.raises(ValueError):
        generate_workload(empty, 50, seed=1)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
def test_sample_range_replays_random_sample(seed):
    # n <= 21 (or larger n against k > 5) takes sample's pool branch, the
    # rest its set branch; k == n is the permutation build_cluster draws
    for n in range(1, 91):
        for k in [*range(1, min(n, 8) + 1), n]:
            rng = random.Random(seed * 1000 + n)
            ours = random.Random(seed * 1000 + n)
            for _ in range(3):  # the stream continues the same way too
                assert _sample_range(ours.getrandbits, n, k) == rng.sample(range(n), k), (n, k)
    assert _sample_range(random.Random(seed).getrandbits, 5, 0) == []
    with pytest.raises(ValueError):
        _sample_range(random.Random(seed).getrandbits, 3, 4)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64), draws=st.integers(0, 3))
def test_shuffle_replays_random_shuffle(seed, draws):
    rng, ours = random.Random(seed), random.Random(seed)
    for _ in range(draws):  # a stream already drawn from
        assert ours.getrandbits(7) == rng.getrandbits(7)
    for n in range(301):  # every length, one after another on the same stream
        expected, got = list(range(n)), list(range(n))
        rng.shuffle(expected)
        _shuffle(ours.getrandbits, got)
        assert got == expected, n
        assert ours.getstate() == rng.getstate(), n


def _fits(scheme, nodes):
    return nodes >= scheme.code_length - (1 if isinstance(scheme, HeptagonLocal) else 0)


def test_build_cluster_matches_reference():
    rng = random.Random(77)
    for name in REPORT_SCHEMES:
        scheme = parse_scheme(name)
        for nodes in (15, 20, 25, 40):
            if not _fits(scheme, nodes):
                continue
            for stripes in (None, 1, 7, 33):
                for _ in range(3):
                    seed = rng.randrange(1 << 32)
                    got = build_cluster(scheme, nodes, 2, stripes, seed)
                    want = build_cluster_reference(scheme, nodes, 2, stripes, seed)
                    assert got == want, (name, nodes, stripes, seed)


def test_matching_and_delay_match_references():
    rng = random.Random(91)
    instances = 0
    for name in REPORT_SCHEMES:
        scheme = parse_scheme(name)
        for nodes in (15, 20, 25, 40):
            if not _fits(scheme, nodes):
                continue
            for slots in (1, 2, 4, 8):
                iseed = rng.randrange(1 << 30)
                cluster = build_cluster(scheme, nodes, slots, rng.choice([None, 5]), iseed)
                for load in (10, rng.randrange(11, 100), 100, rng.randrange(101, 200), 200):
                    w = generate_workload(cluster, load, iseed + load)
                    size = cluster.total_slots
                    for k in range(0, len(w.tasks), size):
                        wave = Workload(w.tasks[k : k + size], load)
                        got = schedule_maxmatch(cluster, wave)
                        want = maxmatch_reference(cluster, wave)
                        assert got.local_tasks == want.local_tasks, (name, nodes, slots, load)
                        assert occupancy_ok(cluster, got)
                        assert all(
                            (v in cluster.catalog[b]) == ok
                            for v, b, ok in zip(got.node_of, wave.tasks, got.local)
                        )
                        for rounds in range(4):
                            seed = rng.randrange(1 << 30)
                            assert schedule_delay(cluster, wave, rounds, seed) == delay_reference(
                                cluster, wave, rounds, seed
                            ), (name, nodes, slots, load, rounds, seed)
                        instances += 1
    assert instances >= 600


def test_maxmatch_augments_through_a_full_node():
    # greedy puts task 0 on node 0, its first host; task 1 can only use
    # node 0, so task 0 must move to node 1 for both to be local
    cluster = make_cluster({0: {0, 1}, 1: {0}}, 2, 1)
    a = schedule_maxmatch(cluster, Workload((0, 1), 100.0))
    assert a == Assignment((1, 0), (True, True))


# ---------------------------------------------------------------------------
# schedulers on hand-built instances


def test_maxmatch_distinct_hosts_all_local():
    catalog = {b: {b} for b in range(10)}
    cluster = make_cluster(catalog, 10, 1)
    workload = Workload(tuple(range(10)), 100.0)
    a = schedule_maxmatch(cluster, workload)
    assert a.locality_pct == 100.0
    assert occupancy_ok(cluster, a)


def test_maxmatch_capacity_bound():
    # 4 tasks all on node 0 with 2 slots: exactly 2 can be local
    cluster = make_cluster({0: {0}}, 3, 2)
    workload = Workload((0, 0, 0, 0), 100.0)
    a = schedule_maxmatch(cluster, workload)
    assert a.local_tasks == 2
    assert a.remote_blocks == 2
    assert occupancy_ok(cluster, a)


def test_maxmatch_overload():
    cluster = make_cluster({0: {0}}, 2, 1)
    with pytest.raises(OverloadError):
        schedule_maxmatch(cluster, Workload((0, 0, 0), 150.0))


def test_delay_all_local_when_spread():
    catalog = {b: {b} for b in range(8)}
    cluster = make_cluster(catalog, 8, 2)
    a = schedule_delay(cluster, Workload(tuple(range(8)), 50.0), rounds_before_remote=5, seed=1)
    assert a.locality_pct == 100.0


def test_delay_zero_rounds_is_greedy_first_fit():
    cluster = make_cluster({0: {0}, 1: {1}}, 2, 1)
    workload = Workload((0, 1), 100.0)
    a = schedule_delay(cluster, workload, rounds_before_remote=0, seed=0)
    assert occupancy_ok(cluster, a)
    b = schedule_maxmatch(cluster, workload)
    assert a.local_tasks <= b.local_tasks


def test_delay_determinism():
    cluster = build_cluster(Polygon(5), 25, 2, stripes=20, seed=5)
    w = generate_workload(cluster, 100, seed=6)
    a = schedule_delay(cluster, w, seed=7)
    assert a == schedule_delay(cluster, w, seed=7)
    assert occupancy_ok(cluster, a)


def test_peeling_degree_one_first():
    # task 0's only live host is node 0; task 1 could go to node 0 or 1
    cluster = make_cluster({10: {0}, 11: {0, 1}}, 2, 1)
    a = schedule_peeling(cluster, Workload((10, 11), 100.0), seed=0)
    assert a.local == (True, True)
    assert a.node_of == (0, 1)


def test_peeling_never_beats_matching():
    for seed in range(8):
        cluster = build_cluster(Polygon(5), 25, 2, stripes=20, seed=seed)
        w = generate_workload(cluster, 100, seed=seed + 100)
        peel = schedule_peeling(cluster, w, seed=seed)
        match = schedule_maxmatch(cluster, w)
        assert peel.local_tasks <= match.local_tasks
        assert occupancy_ok(cluster, peel)


def _peeling_reference(cluster, workload, seed=0):
    """The O(T^2*h) peeling loop that rescans every pending task at every
    step; ``schedule_peeling`` must give exactly its assignments."""
    _check_capacity(cluster, workload)
    tasks = workload.tasks
    n_tasks = len(tasks)
    node_of = [None] * n_tasks
    local = [False] * n_tasks
    free = [cluster.slots_per_node] * cluster.node_count
    order = list(range(n_tasks))
    random.Random(seed).shuffle(order)
    pending = list(order)
    remote = []

    while pending:
        live = {}
        still = []
        for ti in pending:
            hosts = [v for v in sorted(cluster.catalog[tasks[ti]]) if free[v] > 0]
            if hosts:
                live[ti] = hosts
                still.append(ti)
            else:
                remote.append(ti)
        pending = still
        if not pending:
            break
        choice = next((ti for ti in pending if len(live[ti]) == 1), None)
        if choice is None:
            choice = max(pending, key=lambda ti: sum(free[v] for v in live[ti]))
        demand = {v: 0 for v in live[choice]}
        for ti in pending:
            for v in live[ti]:
                if v in demand:
                    demand[v] += 1
        node = min(live[choice], key=lambda v: (demand[v] / free[v], v))
        node_of[choice] = node
        local[choice] = True
        free[node] -= 1
        pending.remove(choice)

    _fill_remote(free, remote, node_of, local)
    return Assignment(tuple(node_of), tuple(local))


def test_peeling_matches_reference_on_random_instances():
    rng = random.Random(2024)
    instances = 0
    for name in REPORT_SCHEMES:
        scheme = parse_scheme(name)
        for nodes in (15, 25, 40):
            if isinstance(scheme, RaidMirror) and nodes == 15:
                continue  # a RAID+m stripe needs 2 * (k + 1) distinct nodes
            for slots in (1, 2, 4, 8):
                for _ in range(3):
                    iseed = rng.randrange(1 << 30)
                    stripes = rng.choice([None, 4, 12])
                    cluster = build_cluster(scheme, nodes, slots, stripes, iseed)
                    for load in rng.sample(range(10, 101), 4):
                        w = generate_workload(cluster, load, iseed + load)
                        seed = rng.randrange(1 << 30)
                        assert schedule_peeling(cluster, w, seed) == _peeling_reference(
                            cluster, w, seed
                        ), (name, nodes, slots, load, iseed, seed)
                        instances += 1
    assert instances >= 800


@pytest.mark.parametrize("load", [150, 200])
def test_peeling_waves_match_reference(load):
    for name in REPORT_SCHEMES:
        cluster = build_cluster(parse_scheme(name), 25, 2, None, seed=load)
        w = generate_workload(cluster, load, seed=load + 1)
        expected_nodes, expected_local = [], []
        size = cluster.total_slots
        waves = [w.tasks[i : i + size] for i in range(0, len(w.tasks), size)]
        assert len(waves) == 2
        for k, wave in enumerate(waves):
            a = _peeling_reference(cluster, Workload(wave, load), seed=7 + k)
            expected_nodes.extend(a.node_of)
            expected_local.extend(a.local)
        got = run_scheduler(cluster, w, "peeling", seed=7)
        assert got == Assignment(tuple(expected_nodes), tuple(expected_local)), name


@pytest.mark.parametrize("seed", range(6))
def test_peeling_remote_order_when_hosts_fill_together(seed):
    # four tasks on block 0 (nodes 0 and 1, one slot each); nodes 2 and 3
    # host nothing.  The first two tasks in shuffled order take nodes 0 and
    # 1; when node 1 fills, the other two lose their last host at the same
    # step and must be filled remotely in shuffled order: nodes 2, then 3.
    cluster = make_cluster({0: {0, 1}}, 4, 1)
    workload = Workload((0, 0, 0, 0), 100.0)
    order = list(range(4))
    random.Random(seed).shuffle(order)
    a = schedule_peeling(cluster, workload, seed)
    assert a == _peeling_reference(cluster, workload, seed)
    assert [a.node_of[ti] for ti in order] == [0, 1, 2, 3]
    assert [a.local[ti] for ti in order] == [True, True, False, False]


@pytest.mark.parametrize("seed", range(6))
def test_peeling_hostless_block_goes_remote_first(seed):
    # block 0 has no host at all: its tasks head the remote list in shuffled
    # order, while both block-1 tasks are pinned to node 0
    cluster = make_cluster({0: set(), 1: {0}}, 2, 2)
    workload = Workload((0, 1, 0, 1), 100.0)
    a = schedule_peeling(cluster, workload, seed)
    assert a == _peeling_reference(cluster, workload, seed)
    assert a.node_of == (1, 0, 1, 0)
    assert a.local == (False, True, False, True)
    single = schedule_peeling(make_cluster({0: set(), 1: {0}}, 2, 1), Workload((0, 1), 100.0))
    assert single == Assignment((1, 0), (False, True))


def test_schedulers_fill_every_task():
    cluster = build_cluster(Polygon(7), 25, 4, stripes=12, seed=3)
    w = generate_workload(cluster, 100, seed=4)
    for name in ("matching", "delay", "peeling"):
        a = run_scheduler(cluster, w, name, seed=5)
        assert a.total == len(w.tasks)
        assert None not in a.node_of
        assert occupancy_ok(cluster, a)


def test_run_scheduler_waves_above_full_load():
    cluster = build_cluster(Replication(2), 25, 2, stripes=100, seed=6)
    w = generate_workload(cluster, 150, seed=7)
    assert len(w.tasks) == 75  # 1.5x the 50 slots
    a = run_scheduler(cluster, w, "matching")
    assert a.total == 75  # two sequential waves
    with pytest.raises(OverloadError):
        schedule_maxmatch(cluster, w)
    with pytest.raises(ValueError):
        run_scheduler(cluster, w, "randomly")


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(REPORT_SCHEMES),
    extra_nodes=st.integers(0, 6),
    slots=st.integers(1, 3),
    load=st.floats(0.5, 200),
    stripes=st.integers(1, 6),
    rounds=st.integers(0, 3),
    seed=st.integers(0, 2**32),
)
def test_no_sweep_cell_overloads(name, extra_nodes, slots, load, stripes, rounds, seed):
    # run_scheduler's waves hold at most the slot count, so every scheduler
    # finds a slot for every task and no OverloadError leaves a sweep
    rows = locality_sweep([name], list(SCHEDULERS), [slots], [load], reps=1,
                          node_count=parse_scheme(name).code_length + extra_nodes,
                          base_seed=seed, stripes=stripes, rounds_before_remote=rounds)
    assert [r["scheduler"] for r in rows] == list(SCHEDULERS)
    assert all(r["tasks"] == int(load / 100 * r["nodes"] * slots) for r in rows)


def test_locality_pct_empty_assignment():
    a = Assignment((), ())
    assert a.locality_pct == 100.0
    assert a.remote_blocks == 0


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rows_schema_and_determinism():
    rows = locality_sweep(["pentagon"], ["delay", "matching"], [2], [50, 100], reps=3, base_seed=1)
    assert len(rows) == 2 * 2 * 3
    for row in rows:
        assert list(row) == LOCALITY_COLUMNS
    again = locality_sweep(["pentagon"], ["delay", "matching"], [2], [50, 100], reps=3, base_seed=1)
    assert rows == again


def test_sweep_shares_instances_across_schedulers():
    rows = locality_sweep(["2-rep"], ["matching", "delay", "peeling"], [2], [100], reps=4, base_seed=2)
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["seed"], {})[row["scheduler"]] = row
    for group in by_instance.values():
        assert len(group) == 3
        tasks = {r["tasks"] for r in group.values()}
        assert len(tasks) == 1
        assert group["matching"]["locality_pct"] >= group["delay"]["locality_pct"]
        assert group["matching"]["locality_pct"] >= group["peeling"]["locality_pct"]


def test_remote_blocks_consistent_with_locality():
    rows = locality_sweep(["pentagon", "2-rep"], ["delay"], [4], [75], reps=3, base_seed=3)
    for row in rows:
        assert row["remote_blocks"] == row["tasks"] - row["local_tasks"]
        assert row["locality_pct"] == pytest.approx(100.0 * row["local_tasks"] / row["tasks"], abs=1e-3)


def test_summarize_locality():
    rows = locality_sweep(["pentagon"], ["delay"], [2], [100], reps=5, base_seed=4)
    summary = summarize_locality(rows)
    assert len(summary) == 1
    cell = summary[0]
    assert list(cell) == SUMMARY_COLUMNS
    assert cell["reps"] == 5
    values = [r["locality_pct"] for r in rows]
    assert cell["locality_mean"] == pytest.approx(sum(values) / 5, abs=1e-3)


def test_mean_locality_nonincreasing_in_load():
    rows = locality_sweep(
        ["pentagon", "2-rep"], ["delay", "matching"], [2, 4], [25, 50, 75, 100],
        reps=10, base_seed=5,
    )
    summary = summarize_locality(rows)
    series = {}
    for cell in summary:
        key = (cell["scheme"], cell["scheduler"], cell["slots"])
        series.setdefault(key, []).append((cell["load_pct"], cell["locality_mean"]))
    for key, points in series.items():
        points.sort()
        values = [v for _, v in points]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:])), (key, values)
