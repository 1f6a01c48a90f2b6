"""Map-task assignment simulator: data locality under three schedulers.

A cluster stores coded stripes tiled across its nodes; a workload draws task
input blocks uniformly from the placement catalog; a scheduler assigns tasks
to map slots.  Locality is the percentage of tasks placed on a node hosting
their input block.

Schedulers
----------
``matching``  maximum matching of tasks to their hosting nodes, each node
              holding up to ``slots_per_node`` tasks: a greedy pass, then
              one BFS augmenting-path search per task left over.  Locality
              is provably maximal for the instance.  A wave of T tasks
              costs O(T*h) plus O(T*h + N) per search, for h hosts per
              block on N nodes; the graph is never expanded per slot.
``delay``     free slots heartbeat in seed-shuffled round-robin order; a
              heartbeat launches a pending task hosted on its node
              (fewest-options-first), and tasks start accepting remote
              slots only after waiting a configurable number of full
              rounds, oldest first.  Options are counted per task and
              lowered when a node fills: about O(T*h*T/N) per wave, plus
              one pass over the slots per round.
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

Block placements come from ``schemes``: the cluster tiles each stripe's
canonical slots (``schemes._Geometry.placements``) onto a window of nodes,
picked from per-window integer scores kept as stripes land; replicated and
RAID+m hosts are seed-random, drawn by ``_sample_range``.  For
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
from heapq import heappop, heappush
from math import ceil, log
from statistics import mean, pstdev

from .schemes import Scheme, _Record, _geometry, parse_scheme


class OverloadError(Exception):
    """More tasks than map slots; size waves before scheduling."""


class ClusterModel(_Record, frozen=True):
    node_count: int
    slots_per_node: int
    catalog: dict[int, tuple[int, ...]]  # block id -> hosting nodes, ascending

    @property
    def total_slots(self) -> int:
        return self.node_count * self.slots_per_node


class Assignment(_Record, frozen=True):
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


def _sample_range(getrandbits, n: int, k: int) -> list[int]:
    """``random.Random.sample(range(n), k)`` replayed from the same
    generator's bound *getrandbits*: the same draws and the same result.

    CPython draws below ``m`` as ``getrandbits(m.bit_length())``, drawing
    again while the value is ``>= m``.  When an n-list is smaller than a
    k-set it runs a partial Fisher-Yates over a pool, kept here as a dict of
    the positions that moved; otherwise it draws below n until it hits a
    value not yet picked.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    setsize = 21  # the size test random.sample makes, to pick the same branch
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    picked: list[int] = []
    if n <= setsize:
        moved: dict[int, int] = {}  # pool[j] where it is not j
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picked.append(moved.get(j, j))
            moved[j] = moved.get(m - 1, m - 1)
    else:
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.append(j)
    return picked


def _shuffle(getrandbits, x: list) -> None:
    """``random.Random.shuffle(x)`` replayed from the same generator's bound
    *getrandbits*: the same draws and the same order, without a Python-level
    ``_randbelow`` call per element.  Swaps ``x[i]`` with a draw below
    ``i + 1`` for i from the end down to 1, drawing as ``_sample_range``
    explains."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


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
    per-node block counts most balanced: the first window minimising the
    sum of squared per-node counts after the stripe lands.  Without groups
    (replication, RAID+m) each block's replicas land on seed-random
    distinct nodes.

    Each window's score is kept as a running integer and each window's
    host tuples (its tile) are made once, so a stripe costs O(windows) to
    place.  Every draw goes through ``_sample_range``.  A catalog entry
    lists its hosts in ascending order, so no scheduler sorts them.
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
    getrandbits = random.Random(seed).getrandbits
    perm = _sample_range(getrandbits, node_count, node_count)
    catalog: dict[int, tuple[int, ...]] = {}

    if geo.groups:
        window_count = -(-node_count // width)
        windows = [
            [perm[(w * width + k) % node_count] for k in range(width)]
            for w in range(window_count)
        ]
        tiles = [
            [tuple(sorted(window[s] for s in slots)) for slots in hosted] for window in windows
        ]
        windows_of: list[list[int]] = [[] for _ in range(node_count)]
        for w, window in enumerate(windows):
            for v in window:
                windows_of[v].append(w)
        p = len(geo.blocks_on[0])  # blocks per node, the same on every slot of a group
        load = [0] * node_count
        # sum((l + p)**2) over a window is sum(l**2) + 2p*sum(l) + width*p**2;
        # the last term is the same for every window, so score the rest
        score = [0] * window_count
        for _ in range(stripes):
            best = score.index(min(score))
            for v in windows[best]:
                l = load[v]
                load[v] = l + p
                # the rise of l**2 + 2p*l when l grows by p
                for w in windows_of[v]:
                    score[w] += 2 * p * l + 3 * p * p
            for hosts in tiles[best]:
                catalog[len(catalog)] = hosts
    else:
        for _ in range(stripes):
            for slots in hosted:
                hosts = _sample_range(getrandbits, node_count, len(slots))
                catalog[len(catalog)] = tuple(sorted(hosts))
    return ClusterModel(node_count, slots_per_node, catalog)


def generate_workload(cluster: ClusterModel, load_pct: float, seed: int) -> tuple[int, ...]:
    """Draw ``floor(load/100 * nodes * slots)`` task blocks uniformly with
    replacement from the catalog: the input block id of each task."""
    if not 0 < load_pct <= 200:
        raise ValueError("load must be in (0, 200] percent")
    if not cluster.catalog:
        raise ValueError("empty placement catalog")
    count = int(load_pct / 100.0 * cluster.total_slots)
    rng = random.Random(seed)
    blocks = sorted(cluster.catalog)
    return tuple(rng.choices(blocks, k=count))


# ---------------------------------------------------------------------------
# Schedulers


def _check_capacity(cluster: ClusterModel, tasks: tuple[int, ...]) -> None:
    if len(tasks) > cluster.total_slots:
        raise OverloadError(f"{len(tasks)} tasks exceed {cluster.total_slots} slots")


def _fill_remote(free: list[int], task_ids, node_of, local):
    """Assign leftover tasks to the least-loaded nodes with free slots."""
    for ti in task_ids:
        node = max(range(len(free)), key=lambda v: (free[v], -v))
        if free[node] == 0:
            raise OverloadError("no free slots left for remote assignment")
        free[node] -= 1
        node_of[ti] = node
        local[ti] = False


def _augment(start: int, hosts, node_of, on_node, free) -> bool:
    """Breadth-first search for an augmenting path from the unmatched task
    *start*: task -> one of its hosts -> a task matched there -> ... -> a
    node with a free slot.  Flips the path and returns True if one exists."""
    via: dict[int, int] = {}  # node -> the task that reached it
    queue = [start]
    for u in queue:
        for v in hosts[u]:
            if v in via:
                continue
            via[v] = u
            if free[v]:
                free[v] -= 1
                while True:  # each task on the path moves to the node it reached
                    u = via[v]
                    old = node_of[u]
                    node_of[u] = v
                    on_node[v].append(u)
                    if old is None:
                        return True
                    on_node[old].remove(u)
                    v = old
            queue.extend(on_node[v])
    return False


def schedule_maxmatch(cluster: ClusterModel, tasks: tuple[int, ...]) -> Assignment:
    """Locality-optimal assignment: a maximum matching of tasks to their
    hosting nodes, each node holding up to ``slots_per_node`` tasks, with
    the remainder filled remotely.

    Tasks are first placed greedily, then every task left over searches
    once for an augmenting path (Kuhn's algorithm with node capacities): a
    task with none keeps none after later augmentations, so the local
    count is the maximum.  Each search is a BFS over at most T tasks and
    N nodes.
    """
    _check_capacity(cluster, tasks)
    hosts = [cluster.catalog[b] for b in tasks]
    node_of: list[int | None] = [None] * len(hosts)
    on_node: list[list[int]] = [[] for _ in range(cluster.node_count)]
    free = [cluster.slots_per_node] * cluster.node_count
    unmatched = []
    for ti, hs in enumerate(hosts):
        for v in hs:
            if free[v]:
                free[v] -= 1
                node_of[ti] = v
                on_node[v].append(ti)
                break
        else:
            unmatched.append(ti)
    remote = [ti for ti in unmatched if not _augment(ti, hosts, node_of, on_node, free)]
    local = [v is not None for v in node_of]
    _fill_remote(free, remote, node_of, local)
    return Assignment(tuple(node_of), tuple(local))


def schedule_delay(
    cluster: ClusterModel,
    tasks: tuple[int, ...],
    rounds_before_remote: int = 1,
    seed: int = 0,
) -> Assignment:
    """Delay scheduling: individual free slots heartbeat in seed-shuffled
    round-robin order; a heartbeat launches a pending task hosted on its
    node (preferring the task with the fewest remaining placement options,
    then the earliest), and tasks accept remote slots only after waiting
    *rounds_before_remote* full rounds, oldest first.

    A task's placement options are its hosts with a free slot; the count is
    kept per task and lowered for the tasks hosted on a node when it fills.
    Each node's list of hosted tasks drops the placed ones at its next
    heartbeat, so a wave of T tasks costs about O(T*h*T/N) for h hosts per
    block on N nodes, plus one pass over the slots per round.
    """
    if rounds_before_remote < 0:
        raise ValueError("rounds_before_remote must be >= 0")
    _check_capacity(cluster, tasks)
    n_tasks = len(tasks)
    catalog = cluster.catalog
    node_of: list[int | None] = [None] * n_tasks
    local = [False] * n_tasks
    free = [cluster.slots_per_node] * cluster.node_count
    # the node of each slot, (node, slot) order; the shuffle draws depend
    # only on the length
    slots = [v for v in range(cluster.node_count) for _ in range(cluster.slots_per_node)]
    _shuffle(random.Random(seed).getrandbits, slots)
    slot_used = [False] * len(slots)

    hosted: list[list[int]] = [[] for _ in range(cluster.node_count)]
    for ti, b in enumerate(tasks):
        for host in catalog[b]:
            hosted[host].append(ti)  # ascending task ids
    live = [len(catalog[b]) for b in tasks]  # hosts with a free slot
    fifo = deque(range(n_tasks))
    pending = n_tasks
    rounds_waited = 0

    while pending:
        progress = False
        for si, v in enumerate(slots):
            if slot_used[si]:
                continue
            candidates = hosted[v] = [t for t in hosted[v] if node_of[t] is None]
            if candidates:
                # min keeps the first of equal counts: the earliest task
                ti = min(candidates, key=live.__getitem__)
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
            if not free[v]:
                for t in candidates:
                    live[t] -= 1
            slot_used[si] = True
            pending -= 1
            progress = True
        rounds_waited += 1
        if pending and not progress and rounds_waited > rounds_before_remote:
            raise OverloadError("pending tasks but no free slots")
    return Assignment(tuple(node_of), tuple(local))


def schedule_peeling(
    cluster: ClusterModel, tasks: tuple[int, ...], seed: int = 0
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
    _check_capacity(cluster, tasks)
    n_tasks = len(tasks)
    node_of: list[int | None] = [None] * n_tasks
    local = [False] * n_tasks
    free = [cluster.slots_per_node] * cluster.node_count
    order = list(range(n_tasks))
    _shuffle(random.Random(seed).getrandbits, order)
    # from here on a task is named by its position p in the shuffled order
    hosts = [cluster.catalog[tasks[ti]] for ti in order]
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
    tasks: tuple[int, ...],
    scheduler: str,
    seed: int = 0,
    rounds_before_remote: int = 1,
) -> Assignment:
    """Run one scheduler, splitting loads above 100% into sequential waves."""
    capacity = cluster.total_slots
    if len(tasks) <= capacity:
        waves = [tasks]
    else:
        waves = [tasks[i : i + capacity] for i in range(0, len(tasks), capacity)]
    nodes: list[int] = []
    locals_: list[bool] = []
    for w, wave in enumerate(waves):
        if scheduler == "matching":
            a = schedule_maxmatch(cluster, wave)
        elif scheduler == "delay":
            a = schedule_delay(cluster, wave, rounds_before_remote, seed + w)
        elif scheduler == "peeling":
            a = schedule_peeling(cluster, wave, seed + w)
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
    """One row per (scheme, scheduler, slots, load, repetition); *schemes*
    are scheme names, as ``parse_scheme`` reads them.

    Rows for the same (scheme, slots, load, rep) share a cluster and
    workload across schedulers, so scheduler columns are comparable
    instance by instance.
    """
    rows = []
    for name in schemes:
        scheme = parse_scheme(name)
        for mu in slot_counts:
            for load in loads:
                for rep in range(reps):
                    iseed = _cell_seed(base_seed, scheme.name, mu, load, rep)
                    cluster = build_cluster(scheme, node_count, mu, stripes, iseed)
                    tasks = generate_workload(cluster, load, iseed ^ 0x5BD1E995)
                    for scheduler in schedulers:
                        a = run_scheduler(
                            cluster,
                            tasks,
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
