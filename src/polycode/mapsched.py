"""Map-task assignment simulator: data locality under three schedulers.

A cluster stores coded stripes tiled across its nodes; a workload draws task
input blocks uniformly from the placement catalog; a scheduler assigns tasks
to map slots.  Locality is the percentage of tasks placed on a node hosting
their input block.

Schedulers
----------
``matching``  maximum-cardinality bipartite matching between tasks and the
              slot-expanded hosting nodes (Hopcroft-Karp); locality is
              provably maximal for the instance.
``delay``     free slots heartbeat in seed-shuffled round-robin order; a
              heartbeat launches a pending task hosted on its node
              (fewest-options-first), and tasks start accepting remote
              slots only after waiting a configurable number of full
              rounds, oldest first.
``peeling``   tasks with a single live hosting node are placed first; after
              that the task with the most slack across its hosts goes to its
              least-contended host.  Ties go to the earliest task in a
              seed-shuffled order, the host is the live one minimising
              ``(demand / free, node)``, and tasks left with no live host
              are filled remotely in shuffled order.  Degrees and slacks are
              kept in heaps and updated per placement, as in an LT-code
              peeling decoder: about O(T*h*T/N) per wave of T tasks on N
              nodes with h hosts per block, not O(T^2*h).

Loads above 100% are split into ``ceil(load/100)`` sequential waves by
``run_scheduler``; the schedulers themselves require tasks <= total slots.

Block placements come from ``codes``: the cluster tiles each stripe's
canonical slots (``codes._Geometry.placements``) onto a window of nodes.  For
the heptagon-local code only the two heptagons are placed: the global parity
node hosts no map input and plays no role in task assignment, so it is left
out of the simulated cluster.

Sweep cells are independent; every scheduler run is a deterministic function
of (cluster, workload, parameters, seed).
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from statistics import mean, pstdev

from .codes import RaidMirror, Replication, Scheme, _geometry, parse_scheme


class OverloadError(Exception):
    """More tasks than map slots; size waves before scheduling."""


@dataclass(frozen=True)
class ClusterModel:
    scheme_name: str
    node_count: int
    slots_per_node: int
    catalog: dict[int, frozenset[int]]  # block id -> hosting nodes

    @property
    def total_slots(self) -> int:
        return self.node_count * self.slots_per_node


@dataclass(frozen=True)
class Workload:
    tasks: tuple[int, ...]  # input block id per task
    load_pct: float


@dataclass(frozen=True)
class Assignment:
    node_of: tuple[int, ...]
    local: tuple[bool, ...]

    @property
    def total(self) -> int:
        return len(self.node_of)

    @property
    def local_tasks(self) -> int:
        return sum(self.local)

    @property
    def locality_pct(self) -> float:
        if not self.node_of:
            return 100.0
        return 100.0 * self.local_tasks / self.total

    @property
    def remote_blocks(self) -> int:
        return self.total - self.local_tasks


def default_stripes(scheme: Scheme, target_data_blocks: int = 720) -> int:
    """Stripes needed to store roughly *target_data_blocks* data blocks
    (the same dataset size whatever the scheme)."""
    return -(-target_data_blocks // scheme.data_block_count)


def build_cluster(
    scheme: Scheme,
    node_count: int,
    slots_per_node: int,
    stripes: int | None,
    seed: int,
) -> ClusterModel:
    """Tile *stripes* stripes of the scheme across *node_count* nodes.

    Polygon groups (and heptagon-local heptagon pairs) occupy fixed windows
    of a seed-shuffled node permutation, one window per ``code length``
    stride (wrapping when the width does not divide the node count, so
    every node hosts data).  Each stripe goes to the window that keeps
    per-node block counts most balanced.  Replication and RAID+m blocks
    land on seed-random distinct nodes.
    """
    if slots_per_node < 1:
        raise ValueError("need at least one map slot per node")
    geo = _geometry(scheme)
    # global parities host no map input, so their slot is not simulated
    hosted = [
        slots for b, slots in geo.placements.items() if b not in geo.global_blocks
    ]
    width = 1 + max(s for slots in hosted for s in slots)
    if node_count < width:
        raise ValueError(f"{scheme.name} needs at least {width} nodes")
    if stripes is None:
        stripes = default_stripes(scheme)
    rng = random.Random(seed)
    perm = rng.sample(range(node_count), node_count)
    catalog: dict[int, frozenset[int]] = {}
    next_block = 0

    def add(hosts):
        nonlocal next_block
        catalog[next_block] = frozenset(hosts)
        next_block += 1

    if geo.groups:
        window_count = -(-node_count // width)
        windows = [
            [perm[(w * width + k) % node_count] for k in range(width)]
            for w in range(window_count)
        ]
        per_node = len(geo.blocks_on[0])  # the same on every slot of a group
        load = [0] * node_count
        for _ in range(stripes):
            best = min(
                range(window_count),
                key=lambda w: sum((load[v] + per_node) ** 2 for v in windows[w]),
            )
            window = windows[best]
            for v in window:
                load[v] += per_node
            for slots in hosted:
                add([window[s] for s in slots])
    elif isinstance(scheme, Replication):
        for _ in range(stripes):
            add(rng.sample(range(node_count), scheme.copies))
    elif isinstance(scheme, RaidMirror):
        for _ in range(stripes):
            for _ in range(scheme.block_count):
                add(rng.sample(range(node_count), 2))
    else:  # pragma: no cover
        raise TypeError(f"unknown scheme type: {scheme!r}")
    return ClusterModel(scheme.name, node_count, slots_per_node, catalog)


def generate_workload(cluster: ClusterModel, load_pct: float, seed: int) -> Workload:
    """Draw ``floor(load/100 * nodes * slots)`` task blocks uniformly with
    replacement from the catalog."""
    if not 0 < load_pct <= 200:
        raise ValueError("load must be in (0, 200] percent")
    if not cluster.catalog:
        raise ValueError("empty placement catalog")
    count = int(load_pct / 100.0 * cluster.total_slots)
    rng = random.Random(seed)
    blocks = sorted(cluster.catalog)
    return Workload(tuple(rng.choices(blocks, k=count)), load_pct)


# ---------------------------------------------------------------------------
# Schedulers


def _check_capacity(cluster: ClusterModel, workload: Workload) -> None:
    if len(workload.tasks) > cluster.total_slots:
        raise OverloadError(
            f"{len(workload.tasks)} tasks exceed {cluster.total_slots} slots"
        )


def _fill_remote(free: list[int], task_ids, node_of, local):
    """Assign leftover tasks to the least-loaded nodes with free slots."""
    for ti in task_ids:
        node = max(range(len(free)), key=lambda v: (free[v], -v))
        if free[node] == 0:
            raise OverloadError("no free slots left for remote assignment")
        free[node] -= 1
        node_of[ti] = node
        local[ti] = False


class _HopcroftKarp:
    """Maximum bipartite matching between task indices and slot ids."""

    INF = -1

    def __init__(self, adjacency: list[list[int]]):
        self.adj = adjacency
        self.match_left: list[int | None] = [None] * len(adjacency)
        self.match_right: dict[int, int] = {}
        self.dist: list[int] = [0] * len(adjacency)

    def _bfs(self) -> bool:
        queue = deque()
        for u, m in enumerate(self.match_left):
            if m is None:
                self.dist[u] = 0
                queue.append(u)
            else:
                self.dist[u] = self.INF
        found = False
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                w = self.match_right.get(v)
                if w is None:
                    found = True
                elif self.dist[w] == self.INF:
                    self.dist[w] = self.dist[u] + 1
                    queue.append(w)
        return found

    def _dfs(self, u: int) -> bool:
        for v in self.adj[u]:
            w = self.match_right.get(v)
            if w is None or (self.dist[w] == self.dist[u] + 1 and self._dfs(w)):
                self.match_left[u] = v
                self.match_right[v] = u
                return True
        self.dist[u] = self.INF
        return False

    def solve(self) -> list[int | None]:
        while self._bfs():
            for u in range(len(self.adj)):
                if self.match_left[u] is None:
                    self._dfs(u)
        return self.match_left


def schedule_maxmatch(cluster: ClusterModel, workload: Workload) -> Assignment:
    """Locality-optimal assignment via maximum matching on the bipartite
    task/slot graph, remainders filled remotely."""
    _check_capacity(cluster, workload)
    mu = cluster.slots_per_node
    adjacency = [
        [host * mu + s for host in sorted(cluster.catalog[b]) for s in range(mu)]
        for b in workload.tasks
    ]
    match = _HopcroftKarp(adjacency).solve()
    node_of: list[int | None] = [None] * len(workload.tasks)
    local = [False] * len(workload.tasks)
    free = [mu] * cluster.node_count
    unmatched = []
    for ti, slot in enumerate(match):
        if slot is None:
            unmatched.append(ti)
        else:
            node = slot // mu
            node_of[ti] = node
            local[ti] = True
            free[node] -= 1
    _fill_remote(free, unmatched, node_of, local)
    return Assignment(tuple(node_of), tuple(local))


def schedule_delay(
    cluster: ClusterModel,
    workload: Workload,
    rounds_before_remote: int = 1,
    seed: int = 0,
) -> Assignment:
    """Delay scheduling: individual free slots heartbeat in seed-shuffled
    round-robin order; a heartbeat launches a pending task hosted on its
    node (preferring the task with the fewest remaining placement options),
    and tasks accept remote slots only after waiting
    *rounds_before_remote* full rounds, oldest first."""
    if rounds_before_remote < 0:
        raise ValueError("rounds_before_remote must be >= 0")
    _check_capacity(cluster, workload)
    tasks = workload.tasks
    n_tasks = len(tasks)
    catalog = cluster.catalog
    node_of: list[int | None] = [None] * n_tasks
    local = [False] * n_tasks
    free = [cluster.slots_per_node] * cluster.node_count
    slots = [
        (v, s)
        for v in range(cluster.node_count)
        for s in range(cluster.slots_per_node)
    ]
    random.Random(seed).shuffle(slots)
    slot_used = [False] * len(slots)

    hosted: dict[int, list[int]] = {v: [] for v in range(cluster.node_count)}
    for ti, b in enumerate(tasks):
        for host in catalog[b]:
            hosted[host].append(ti)
    fifo = deque(range(n_tasks))
    pending = n_tasks
    rounds_waited = 0

    while pending:
        progress = False
        for si, (v, _) in enumerate(slots):
            if slot_used[si]:
                continue
            candidates = [t for t in hosted[v] if node_of[t] is None]
            if candidates:
                ti = min(
                    candidates,
                    key=lambda t: (
                        sum(1 for h in catalog[tasks[t]] if free[h] > 0),
                        t,
                    ),
                )
                local[ti] = True
            elif rounds_waited >= rounds_before_remote:
                while fifo and node_of[fifo[0]] is not None:
                    fifo.popleft()
                if not fifo:
                    break
                ti = fifo.popleft()
            else:
                continue  # hold the slot hoping a local task frees up
            node_of[ti] = v
            free[v] -= 1
            slot_used[si] = True
            pending -= 1
            progress = True
        rounds_waited += 1
        if pending and not progress and rounds_waited > rounds_before_remote:
            raise OverloadError("pending tasks but no free slots")
    return Assignment(tuple(node_of), tuple(local))


def schedule_peeling(
    cluster: ClusterModel, workload: Workload, seed: int = 0
) -> Assignment:
    """Modified peeling: degree-1 tasks (a single hosting node with free
    slots) are pinned first; otherwise the task with the greatest total
    slack across its hosts is placed on its least-contended host.

    Tie-breaks follow the seed-shuffled task order: the earliest degree-1
    task goes first, and among tasks of maximal slack the earliest wins.
    The host is ``min(live, key=(demand[v] / free[v], v))`` over the task's
    hosts with a free slot, where ``demand[v]`` counts the pending tasks
    hosted on ``v``.  A task whose block has no host at all heads the remote
    list; a task whose degree reaches 0 joins it in shuffled order at the
    step its last host fills.  Remote tasks are then placed by
    ``_fill_remote``.

    Degrees, slacks and demands are updated as slots are taken, from a
    min-heap of degree-1 positions and one min-heap of positions per slack
    value (both with lazy deletion).  A placement touches only the tasks
    hosted on the chosen node, so a wave costs about O(T*h*T/N) heap
    operations for T tasks, h hosts per block and N nodes, against
    O(T^2*h) for rescanning every pending task at every step.
    """
    _check_capacity(cluster, workload)
    tasks = workload.tasks
    n_tasks = len(tasks)
    node_of: list[int | None] = [None] * n_tasks
    local = [False] * n_tasks
    free = [cluster.slots_per_node] * cluster.node_count
    order = list(range(n_tasks))
    random.Random(seed).shuffle(order)
    # from here on a task is named by its position p in the shuffled order
    hosts = [sorted(cluster.catalog[tasks[ti]]) for ti in order]
    on_node: list[list[int]] = [[] for _ in range(cluster.node_count)]
    for p, hs in enumerate(hosts):
        for v in hs:
            on_node[v].append(p)  # ascending positions
    demand = [len(ps) for ps in on_node]
    degree = [len(hs) for hs in hosts]
    slack = [d * cluster.slots_per_node for d in degree]
    pending = [d > 0 for d in degree]
    remote = [order[p] for p in range(n_tasks) if not degree[p]]  # no host
    singles = [p for p in range(n_tasks) if degree[p] == 1]  # sorted: a heap
    top = max(slack, default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for p, s in enumerate(slack):
        buckets[s].append(p)  # ascending positions: each bucket is a heap
    left = n_tasks - len(remote)

    while left:
        while singles and not (pending[singles[0]] and degree[singles[0]] == 1):
            heappop(singles)
        if singles:
            p = heappop(singles)
        else:
            while True:
                bucket = buckets[top]
                while bucket and not (pending[bucket[0]] and slack[bucket[0]] == top):
                    heappop(bucket)
                if bucket:
                    break
                top -= 1
            p = heappop(bucket)
        node = min(
            (v for v in hosts[p] if free[v]), key=lambda v: (demand[v] / free[v], v)
        )
        ti = order[p]
        node_of[ti] = node
        local[ti] = True
        pending[p] = False
        left -= 1
        for v in hosts[p]:
            demand[v] -= 1
        free[node] -= 1
        full = not free[node]
        for q in on_node[node]:
            if not pending[q]:
                continue
            s = slack[q] - 1
            slack[q] = s
            if full:
                d = degree[q] - 1
                degree[q] = d
                if d == 0:  # its last host just filled
                    pending[q] = False
                    left -= 1
                    remote.append(order[q])
                    continue
                if d == 1:
                    heappush(singles, q)
            heappush(buckets[s], q)

    _fill_remote(free, remote, node_of, local)
    return Assignment(tuple(node_of), tuple(local))


SCHEDULERS = ("matching", "delay", "peeling")


def run_scheduler(
    cluster: ClusterModel,
    workload: Workload,
    scheduler: str,
    seed: int = 0,
    rounds_before_remote: int = 1,
) -> Assignment:
    """Run one scheduler, splitting loads above 100% into sequential waves."""
    capacity = cluster.total_slots
    tasks = workload.tasks
    if len(tasks) <= capacity:
        waves = [tasks]
    else:
        waves = [tasks[i : i + capacity] for i in range(0, len(tasks), capacity)]
    nodes: list[int] = []
    locals_: list[bool] = []
    for w, wave in enumerate(waves):
        sub = Workload(wave, workload.load_pct)
        if scheduler == "matching":
            a = schedule_maxmatch(cluster, sub)
        elif scheduler == "delay":
            a = schedule_delay(cluster, sub, rounds_before_remote, seed + w)
        elif scheduler == "peeling":
            a = schedule_peeling(cluster, sub, seed + w)
        else:
            raise ValueError(f"unknown scheduler: {scheduler}")
        nodes.extend(a.node_of)
        locals_.extend(a.local)
    return Assignment(tuple(nodes), tuple(locals_))


# ---------------------------------------------------------------------------
# Sweeps

LOCALITY_COLUMNS = [
    "scheme",
    "scheduler",
    "nodes",
    "slots",
    "load_pct",
    "seed",
    "tasks",
    "local_tasks",
    "locality_pct",
    "remote_blocks",
]

SUMMARY_COLUMNS = [
    "scheme",
    "scheduler",
    "nodes",
    "slots",
    "load_pct",
    "reps",
    "locality_mean",
    "locality_std",
    "remote_mean",
    "remote_std",
]


def _cell_seed(*parts) -> int:
    return zlib.crc32("|".join(str(p) for p in parts).encode())


def locality_sweep(
    schemes,
    schedulers,
    slot_counts,
    loads,
    reps: int,
    node_count: int = 25,
    base_seed: int = 0,
    stripes: int | None = None,
    rounds_before_remote: int = 1,
) -> list[dict]:
    """One row per (scheme, scheduler, slots, load, repetition).

    Rows for the same (scheme, slots, load, rep) share a cluster and
    workload across schedulers, so scheduler columns are comparable
    instance by instance.
    """
    rows = []
    for scheme in schemes:
        if isinstance(scheme, str):
            scheme = parse_scheme(scheme)
        for mu in slot_counts:
            for load in loads:
                for rep in range(reps):
                    iseed = _cell_seed(base_seed, scheme.name, mu, load, rep)
                    cluster = build_cluster(scheme, node_count, mu, stripes, iseed)
                    workload = generate_workload(cluster, load, iseed ^ 0x5BD1E995)
                    for scheduler in schedulers:
                        a = run_scheduler(
                            cluster,
                            workload,
                            scheduler,
                            seed=_cell_seed(iseed, scheduler),
                            rounds_before_remote=rounds_before_remote,
                        )
                        rows.append(
                            {
                                "scheme": scheme.name,
                                "scheduler": scheduler,
                                "nodes": node_count,
                                "slots": mu,
                                "load_pct": load,
                                "seed": iseed,
                                "tasks": a.total,
                                "local_tasks": a.local_tasks,
                                "locality_pct": round(a.locality_pct, 4),
                                "remote_blocks": a.remote_blocks,
                            }
                        )
    return rows


def summarize_locality(rows: list[dict]) -> list[dict]:
    """Mean/stddev of locality and remote blocks per sweep cell."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["scheme"], row["scheduler"], row["nodes"], row["slots"], row["load_pct"])
        cells.setdefault(key, []).append(row)
    out = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        group = cells[key]
        loc = [r["locality_pct"] for r in group]
        rem = [r["remote_blocks"] for r in group]
        out.append(
            {
                "scheme": key[0],
                "scheduler": key[1],
                "nodes": key[2],
                "slots": key[3],
                "load_pct": key[4],
                "reps": len(group),
                "locality_mean": round(mean(loc), 4),
                "locality_std": round(pstdev(loc), 4),
                "remote_mean": round(mean(rem), 4),
                "remote_std": round(pstdev(rem), 4),
            }
        )
    return out
