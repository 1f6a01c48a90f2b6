"""Shared test helpers."""

import builtins
import io
import os
import random
import zlib
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Mapping

from polycode import codes
from polycode.codes import (
    ChecksumMismatchError,
    InconsistentStripeError,
    MissingBlockError,
    RepairPlan,
    UnrecoverableError,
    WholeCopy,
    _Sums,
    _transform,
)
from polycode.gf256 import gf_inv, gf_mul, scale_bytes
from polycode.mapsched import (
    Assignment,
    ClusterModel,
    OverloadError,
    _check_capacity,
    _fill_remote,
    default_stripes,
)
from polycode.reliability import LOSS, FailureModel, MarkovChain
from polycode.schemes import Replication, Scheme, _geometry, is_recoverable_mask


def make_checked_reader(blocks: Mapping[int, bytes]) -> Callable[[int], bytes]:
    """Accessor over an in-memory block map that snapshots CRC32s at
    creation and verifies them on every read."""
    crcs = {b: zlib.crc32(data) for b, data in blocks.items()}

    def reader(block_id: int) -> bytes:
        if block_id not in blocks:
            raise MissingBlockError(f"block {block_id} not available")
        data = blocks[block_id]
        if zlib.crc32(data) != crcs[block_id]:
            raise ChecksumMismatchError(f"block {block_id} failed its CRC check")
        return data

    return reader


def oracle_decode(scheme: Scheme, present: Mapping[int, bytes]) -> list[bytes]:
    """Generic decode oracle: full Gaussian elimination of the surviving
    linear system over GF(2^8), no scheme-specific shortcuts.  The
    independent reference that the plan-based ``codes.decode_stripe`` is
    checked against.

    Raises UnrecoverableError when the surviving rows do not determine the
    data and InconsistentStripeError when the bytes contradict them.
    """
    geo = _geometry(scheme)
    order = sorted(present)
    D = scheme.data_block_count
    consts = [bytes(present[b]) for b in order]
    rank, transform = _transform([list(geo.rows[b]) for b in order], D)
    if rank < D:
        raise UnrecoverableError("surviving blocks do not determine the data")
    width = len(consts[0])
    if any(len(c) != width for c in consts):
        raise ValueError("blocks differ in length")
    sums = _Sums({k: list(enumerate(t)) for k, t in enumerate(transform)}, width)
    for i, const in enumerate(consts):
        sums.feed(i, const)
    if any(sums.take(k) for k in range(rank, len(transform))):
        raise InconsistentStripeError("surviving bytes violate parity relations")
    return [sums.take(k).to_bytes(width, "little") for k in range(D)]


def can_decode_from(scheme: Scheme, present) -> bool:
    """True iff the distinct blocks *present* determine every data block:
    Gaussian elimination over GF(2^8) of their whole coefficient rows,
    kept sparse, finds a pivot in each of the D data columns.  The rank
    reference that the planners' refusals and the fate table are checked
    against, independent of both."""
    geo = _geometry(scheme)
    pool = [{i: c for i, c in enumerate(geo.rows[b]) if c} for b in sorted(set(present))]
    for col in range(scheme.data_block_count):
        pivot = next((row for row in pool if col in row), None)
        if pivot is None:
            return False
        pool.remove(pivot)
        inv = gf_inv(pivot[col])
        for row in pool:
            if col in row:
                f = gf_mul(row[col], inv)
                for i, c in pivot.items():
                    v = row.get(i, 0) ^ gf_mul(f, c)
                    if v:
                        row[i] = v
                    else:
                        del row[i]
    return True


@contextmanager
def created_files(monkeypatch):
    """Yield a list that gathers each path an open creates while the block
    runs: an ``os.open`` with ``O_CREAT``, or an ``open`` in a ``w``, ``x``
    or ``a`` mode, of a path that did not exist before it.  Reopening a
    file that exists creates no inode, and is not counted."""
    created = []
    real_open, real_os_open = builtins.open, os.open

    def counting_os_open(path, flags, *args, **kwargs):
        new = flags & os.O_CREAT and not os.path.lexists(path)
        fd = real_os_open(path, flags, *args, **kwargs)
        if new:
            created.append(str(path))
        return fd

    def counting_open(file, mode="r", *args, **kwargs):
        new = (not isinstance(file, int) and any(c in mode for c in "wxa")
               and not os.path.lexists(file))
        fh = real_open(file, mode, *args, **kwargs)
        if new:
            created.append(str(file))
        return fh

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", counting_open)
        m.setattr(io, "open", counting_open)  # pathlib opens through io.open
        m.setattr(os, "open", counting_os_open)
        yield created


def degraded_reads(caplog) -> list[tuple]:
    """The (file, stripe, block, transfers) of each degraded read that the
    block store logged while *caplog* listened."""
    return [r.args for r in caplog.records
            if r.name == "polycode.blockstore" and r.msg.startswith("degraded read:")]


def expected_hours_reference(chain: MarkovChain) -> float:
    """``MarkovChain.expected_hours_to_loss`` as Gauss-Jordan over
    ``Fraction``: the reference the integer solve must match exactly."""
    m = len(chain.states)
    # (R_i) T_i - sum_j r_ij T_j = 1 over non-absorbing states
    a = [[Fraction(0)] * m for _ in range(m)]
    rhs = [Fraction(1)] * m
    for i, outs in enumerate(chain.transitions):
        a[i][i] = sum(r for _, r in outs)
        for target, rate in outs:
            if target is not LOSS:
                a[i][target] -= rate
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular chain generator")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / a[col][col]
        a[col] = row = [v * inv for v in a[col]]
        rhs[col] = rhs[col] * inv
        nonzero = [(j, v) for j, v in enumerate(row) if v != 0]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                target = a[r]
                for j, v in nonzero:
                    target[j] -= f * v
                rhs[r] = rhs[r] - f * rhs[col]
    return float(rhs[0])


def simulate_trial_reference(
    scheme: Scheme, model: FailureModel, rng: random.Random, fate: dict[int, bool]
) -> float:
    """``reliability._simulate_trial`` with plain ``randrange`` draws and
    rates computed per event: the reference the tabled loop must match."""
    n = scheme.code_length
    lam = model.fail_rate
    mu = model.repair_rate
    parallel = model.repair_mode == "parallel"
    up = list(range(n))
    failed: list[int] = []
    mask = 0
    t = 0.0
    while True:
        k = len(failed)
        frate = (n - k) * lam
        rrate = k * mu if parallel else (mu if k else 0.0)
        total = frate + rrate
        t += rng.expovariate(total)
        if rng.random() * total < frate:
            i = rng.randrange(n - k)
            node = up[i]
            up[i] = up[-1]
            up.pop()
            failed.append(node)
            mask |= 1 << node
            ok = fate.get(mask)
            if ok is None:
                ok = fate[mask] = is_recoverable_mask(scheme, mask)
            if not ok:
                return t
        else:
            i = rng.randrange(k) if parallel else 0  # serial repairs oldest first
            node = failed.pop(i)
            mask &= ~(1 << node)
            up.append(node)


def build_cluster_reference(
    scheme: Scheme, node_count: int, slots_per_node: int, stripes: int | None, seed: int
) -> ClusterModel:
    """``mapsched.build_cluster`` with ``rng.sample`` draws and every window
    re-scored per stripe: the reference the tabled builder must match."""
    if slots_per_node < 1:
        raise ValueError("need at least one map slot per node")
    geo = _geometry(scheme)
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
    catalog: dict[int, tuple[int, ...]] = {}

    def add(hosts):
        catalog[len(catalog)] = tuple(sorted(hosts))

    if geo.groups:
        window_count = -(-node_count // width)
        windows = [
            [perm[(w * width + k) % node_count] for k in range(width)]
            for w in range(window_count)
        ]
        per_node = len(geo.blocks_on[0])
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
    else:
        for _ in range(stripes):
            for _ in range(scheme.block_count):
                add(rng.sample(range(node_count), 2))
    return ClusterModel(node_count, slots_per_node, catalog)


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


def maxmatch_reference(cluster: ClusterModel, tasks: tuple[int, ...]) -> Assignment:
    """``mapsched.schedule_maxmatch`` as Hopcroft-Karp on the slot-expanded
    task/slot graph: the reference for the local count."""
    _check_capacity(cluster, tasks)
    mu = cluster.slots_per_node
    adjacency = [
        [host * mu + s for host in sorted(cluster.catalog[b]) for s in range(mu)]
        for b in tasks
    ]
    match = _HopcroftKarp(adjacency).solve()
    node_of: list[int | None] = [None] * len(tasks)
    local = [False] * len(tasks)
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


def delay_reference(
    cluster: ClusterModel, tasks: tuple[int, ...], rounds_before_remote: int = 1, seed: int = 0
) -> Assignment:
    """``mapsched.schedule_delay`` re-summing each candidate's live hosts
    at every heartbeat: the reference the counted loop must match."""
    _check_capacity(cluster, tasks)
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
                continue
            node_of[ti] = v
            free[v] -= 1
            slot_used[si] = True
            pending -= 1
            progress = True
        rounds_waited += 1
        if pending and not progress and rounds_waited > rounds_before_remote:
            raise OverloadError("pending tasks but no free slots")
    return Assignment(tuple(node_of), tuple(local))


class SumsReference:
    """``codes._Sums`` before bit-planes: GF(2^8)-linear sums over a set of
    inputs, built by feeding each input once.  ``terms[target]`` lists a target's (input key, coefficient)
    pairs; an input may appear in many targets, or twice in one.

    Blocks are summed as little-endian ints.  GF(2^8) multiplication
    distributes over XOR, so a target's terms that share a coefficient are
    XORed and their sum is scaled once, when the target is taken.  A lone
    term with a coefficient other than 1 is scaled straight from the
    input's bytes.  Coefficient 1 is never scaled and 0 is skipped.  An
    input's int form is made at most once, and nothing of it is kept once
    it has been fed.
    """

    def __init__(self, terms: Mapping, width: int | None = None):
        self.width = width  # block length in bytes; may be set before the first feed
        self._uses: dict = {}  # input key -> [(target, coef, lone)]
        self._shared: dict = {}  # target -> coefficients other than 1 on 2+ terms
        for target, pairs in terms.items():
            count: dict[int, int] = {}
            for _, coef in pairs:
                count[coef] = count.get(coef, 0) + 1
            self._shared[target] = [c for c, n in count.items() if c > 1 and n > 1]
            for key, coef in pairs:
                if coef:
                    self._uses.setdefault(key, []).append((target, coef, count[coef] == 1))
        self._acc: dict = {}  # target -> XOR of its finished terms
        self._pending: dict = {}  # (target, coef) -> XOR of the inputs awaiting coef

    def feed(self, key, data: bytes | None, value: int | None = None) -> int | None:
        """Add input *key*, given as bytes *data*, int *value* or both, to
        every target that uses it.  Returns its int form: *value*, the one
        made here, or None if no target needed one."""
        acc, pending = self._acc, self._pending
        for target, coef, lone in self._uses.pop(key, ()):
            if lone and coef != 1:
                if data is None:
                    data = value.to_bytes(self.width, "little")
                term = int.from_bytes(scale_bytes(coef, data), "little")
                acc[target] = acc.get(target, 0) ^ term
                continue
            if value is None:
                value = int.from_bytes(data, "little")
            if coef == 1:
                acc[target] = acc.get(target, 0) ^ value
            else:
                pending[target, coef] = pending.get((target, coef), 0) ^ value
        return value

    def take(self, target) -> int:
        """*target*'s finished sum as an int; the sums forget it."""
        value = self._acc.pop(target, 0)
        for coef in self._shared.pop(target, ()):
            total = self._pending.pop((target, coef), 0).to_bytes(self.width, "little")
            value ^= int.from_bytes(scale_bytes(coef, total), "little")
        return value


def execute_plan_reference(plan: RepairPlan, reader: Callable[[int], bytes]) -> dict[int, bytes]:
    """``codes.execute_plan`` as it ran each transfer in turn, summing its
    payload and each recovery from the bytes: the reference whose results
    and errors the composed executor must equal.

    The accessor serves surviving blocks and may raise MissingBlockError or
    ChecksumMismatchError; blocks recovered earlier in the plan are readable
    by later transfers.

    Read once: each source block is read from the accessor once, at the
    first transfer that needs it, and becomes an int at most once.  Free
    after last use: a block is fed into every partial parity that uses it
    as soon as it is read or recovered and then dropped, unless a later
    whole copy still has to send it; a payload is fed into every recovery
    that uses it as soon as its transfer runs and then dropped.  A partial
    parity stays an int, a whole copy keeps the bytes the accessor returned,
    and each recovered block becomes bytes once.
    """
    transfers, recoveries = plan.transfers, plan.recoveries
    # a block is keyed by version: 0 as the accessor serves it, n as its
    # n-th recovery in the plan leaves it
    rec_keys = []
    count: dict[int, int] = {}
    for rec in recoveries:
        count[rec.block_id] = count.get(rec.block_id, 0) + 1
        rec_keys.append((rec.block_id, count[rec.block_id]))
    partials: dict[int, list] = {}  # transfer -> its terms over block versions
    copies: dict[tuple, list[int]] = {}  # block version -> transfers copying it whole
    first_reads: dict[int, list] = {}  # transfer -> blocks it is first to read
    read: set[int] = set()
    version: dict[int, int] = {}
    k = 0
    for idx, tr in enumerate(transfers):
        while k < len(recoveries) and recoveries[k].ready_after < idx:
            version[rec_keys[k][0]] = rec_keys[k][1]
            k += 1
        p = tr.payload
        if isinstance(p, WholeCopy):
            key = (p.block_id, version.get(p.block_id, 0))
            copies.setdefault(key, []).append(idx)
            keys = [key]
        else:
            keys = [(b, version.get(b, 0)) for b, _ in p.terms]
            partials[idx] = [(key, coef) for key, (_, coef) in zip(keys, p.terms)]
        for b, v in keys:
            if v == 0 and b not in read:
                read.add(b)
                first_reads.setdefault(idx, []).append(b)

    blocks = SumsReference(partials)  # partial parities over block versions
    payloads = SumsReference({k: rec.terms for k, rec in enumerate(recoveries)})
    summed = {i for rec in recoveries for i, _ in rec.terms}
    held: dict[int, list] = {}  # whole copy's transfer -> [bytes, int or None]
    recovered: dict[int, bytes] = {}
    width = None

    def feed(key, data: bytes, value: int | None = None) -> None:
        value = blocks.feed(key, data, value)
        whole = copies.get(key, ())
        # keep the int form only for a copy that a recovery sums
        form = [data, value if any(idx in summed for idx in whole) else None]
        for idx in whole:
            held[idx] = form

    k = 0
    for idx, tr in enumerate(transfers):
        for b in first_reads.get(idx, ()):
            data = reader(b)
            if width is None:
                width = blocks.width = payloads.width = len(data)
            elif len(data) != width:
                raise ValueError("blocks differ in length")
            feed((b, 0), data)
        p = tr.payload
        if isinstance(p, WholeCopy):
            form = held.pop(idx)
            if tr.delivers:
                recovered[p.block_id] = form[0]
            form[1] = payloads.feed(idx, *form)
        else:
            payloads.feed(idx, None, blocks.take(idx))
        while k < len(recoveries) and recoveries[k].ready_after <= idx:
            value = payloads.take(k)
            data = recovered[rec_keys[k][0]] = value.to_bytes(width, "little")
            feed(rec_keys[k], data, value)
            k += 1
    if k < len(recoveries):
        raise AssertionError("plan recoveries reference transfers that never ran")
    return recovered
