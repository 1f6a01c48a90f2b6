"""Shared test helpers."""

import ast
import builtins
import errno
import io
import os
import random
import re
import zlib
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

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


_FILE_CALL = re.compile(r"open|os\.\w+|.*\.(unlink|open|glob|iterdir|(read|write)_(bytes|text))")


def file_calls(module) -> dict[str, set[str]]:
    """Each function of *module* that opens, removes or lists files, by
    name, and the calls by which it does so: ``open``, an ``os`` function,
    or a path method that opens, removes or lists."""
    calls = {}
    for fn in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                name = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
                if _FILE_CALL.fullmatch(name):
                    calls.setdefault(fn.name, set()).add(name)
    return calls


# -- RecordedOS: the file calls of the store and the CLI, logged and faulted --

READS = ("pread", "preadv", "readall")


class Call(NamedTuple):
    """One call that ``RecordedOS`` saw.  *op* is the ``os`` function's name,
    "open" for ``open`` too, and "readall" or "write" for a method of a
    file that ``open`` returned.  *path* is the file's
    name relative to the root, absolute outside it, and "" for a
    descriptor opened before recording began; a rename's is its target.
    *offset* and *length* are the range a read or write asks for (None
    where it has none, or reads to the end).  *result* is the byte count a
    read or write moved, the descriptor an ``os.open`` returned, the
    OSError the call raised, or else None.  *flags* are an open's
    ``os.O_*`` flags, an ``open`` mode's too, and *created* tells whether
    the open made the file."""
    op: str
    path: str
    offset: int | None = None
    length: int | None = None
    result: object = None
    flags: int = 0
    created: bool = False

    @property
    def writes(self) -> bool:
        """An open for writing."""
        return bool(self.flags & (os.O_WRONLY | os.O_RDWR))

    @property
    def reads(self) -> bool:
        """A call that reads: a read, or an open for reading."""
        return self.op in READS or (self.op == "open" and not self.writes)


class _Fault:
    def __init__(self, match, k, error, short):
        self.match, self.k, self.error, self.short = match, k, error, short
        self.seen = 0

    def takes(self, call: Call) -> bool:
        """Whether *call* is the one this fault fails; each match is counted."""
        if not self.match(call):
            return False
        self.seen += 1
        return self.k is None or self.seen - 1 == self.k


def _mode_flags(mode: str) -> int:
    """The ``os.O_*`` flags of an ``open`` mode."""
    flags = os.O_RDWR if "+" in mode else os.O_RDONLY if "r" in mode else os.O_WRONLY
    for char, more in (("w", os.O_CREAT | os.O_TRUNC), ("a", os.O_CREAT | os.O_APPEND),
                       ("x", os.O_CREAT | os.O_EXCL)):
        if char in mode:
            flags |= more
    return flags


def _end(call: Call) -> float:
    """Where the range of a read or write ends: at the file's end when it has no length."""
    return float("inf") if call.length is None else call.offset + call.length


def _cut(buffers, n: int) -> list:
    """The first *n* bytes of *buffers*, as a buffer list for ``writev`` or ``preadv``."""
    out = []
    for buf in map(memoryview, buffers):
        out.append(buf.cast("B")[:n])
        n -= len(out[-1])
    return out


class RecordedOS:
    """A context manager, given ``monkeypatch`` and the *root* that paths
    are logged relative to, that wraps the file calls the store and the
    CLI make: ``os.open``, ``close``, ``pread``, ``preadv``, ``pwrite``,
    ``writev``, ``write``, ``replace``, ``unlink``, ``mkdir`` and ``stat``,
    and ``open`` (``io.open`` too, which pathlib calls), whose files log
    their reads and writes.  Each call is appended to ``calls`` as it ends.

    ``fail`` fails the k-th call that a predicate accepts.  As a disk with
    a latent sector error does (IRON's fail-partial model), a read that
    fails leaves its range unreadable, for every later read that overlaps
    it, until a ``pwrite`` rewrites it or the file is truncated or
    replaced: the sector is remapped."""

    WRAPPED = ("open", "close", "pread", "preadv", "pwrite", "writev", "write", "replace",
               "unlink", "mkdir", "stat")
    # the file calls of blockstore and cli._write_output that are left
    # unrecorded, with why
    UNRECORDED = {
        "os.scandir": "lists a directory: it reads or writes no file",
        "os.getpid": "names a temp output: it touches no file",
        "os.fchmod": "sets a temp output's mode on its descriptor: it moves no byte",
    }

    def __init__(self, monkeypatch, root):
        self.calls: list[Call] = []
        self._monkeypatch, self._root = monkeypatch, os.path.abspath(root)
        self._faults: list[_Fault] = []
        self._paths: dict[int, str] = {}  # descriptor -> path, for each os.open
        self._bad: dict[str, list[tuple[float, float]]] = {}  # unreadable ranges by path

    def fail(self, match, k: int | None = 0, error: int | None = errno.EIO, short=None) -> None:
        """Fail the *k*-th call (from 0; every one when None) that
        ``match(call)`` accepts, a ``Call`` without its result: it raises
        OSError with errno *error*, or, given *short*, a function of the
        call's length, first moves that many bytes; with no *error* it
        then returns that short count."""
        self._faults.append(_Fault(match, k, error, short))

    def __enter__(self) -> "RecordedOS":
        self._patch = self._monkeypatch.context()
        m = self._patch.__enter__()
        for name in self.WRAPPED:
            m.setattr(os, name, getattr(self, f"_{name}")(getattr(os, name)))
        m.setattr(builtins, "open", self._builtin_open(builtins.open))
        m.setattr(io, "open", builtins.open)  # pathlib opens through io.open
        return self

    def __exit__(self, *exc) -> None:
        self._patch.__exit__(*exc)

    # -- the log and the faults ------------------------------------------

    def _name(self, path) -> str:
        path = os.path.abspath(os.fsdecode(path))
        return path[len(self._root) + 1:] if path.startswith(self._root + "/") else path

    def _run(self, call: Call, real, partial=None):
        """Log *call* and return real(), unless a fault takes it or it reads
        a range that a failed read left unreadable.  partial(n) makes the
        call move only n bytes."""
        faults = [f for f in self._faults if f.takes(call)]  # every fault counts its matches
        try:
            if faults:
                result = self._apply(faults[0], call, partial)
            elif call.op in READS and self._unreadable(call):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            else:
                result = real()
        except OSError as exc:
            self.calls.append(call._replace(result=exc))
            raise
        logged = len(result) if isinstance(result, (bytes, str)) else result
        self.calls.append(call._replace(result=logged if isinstance(logged, int) else None))
        return result

    def _apply(self, fault: _Fault, call: Call, partial):
        n = 0
        if fault.short is not None:
            n = fault.short(call.length)
            done = partial(n)
            if fault.error is None:
                return done
        if call.op in READS and call.offset is not None:
            self._bad.setdefault(call.path, []).append((call.offset + n, _end(call)))
        named = call.op in ("open", "replace", "unlink", "mkdir", "stat")  # as the OS names them
        raise OSError(fault.error, os.strerror(fault.error),
                      *([os.path.join(self._root, call.path)] if named else []))

    def _unreadable(self, call: Call) -> bool:
        return call.offset is not None and any(
            lo < _end(call) and call.offset < hi for lo, hi in self._bad.get(call.path, ()))

    def _remap(self, path: str, lo: int, hi: int) -> None:
        """Make [lo, hi) of *path* readable: keep what is left of each unreadable range."""
        if path in self._bad:
            self._bad[path] = [(a, b) for old in self._bad[path]
                               for a, b in ((old[0], min(old[1], lo)), (max(old[0], hi), old[1]))
                               if a < b]

    # -- the wrapped calls -------------------------------------------------

    def _open(self, real):
        def os_open(path, flags, mode=0o777, *, dir_fd=None):
            name = self._name(path)
            call = Call("open", name, flags=flags,
                        created=bool(flags & os.O_CREAT) and not os.path.lexists(path))
            fd = self._run(call, lambda: real(path, flags, mode, dir_fd=dir_fd))
            self._paths[fd] = name
            if flags & os.O_TRUNC:
                self._bad.pop(name, None)
            return fd
        return os_open

    def _builtin_open(self, real):
        def open_(file, mode="r", *args, **kwargs):
            if isinstance(file, int):
                return real(file, mode, *args, **kwargs)
            name, flags = self._name(file), _mode_flags(mode)
            call = Call("open", name, flags=flags,
                        created=bool(flags & os.O_CREAT) and not os.path.lexists(file))
            fh = self._run(call, lambda: real(file, mode, *args, **kwargs))
            if flags & os.O_TRUNC:
                self._bad.pop(name, None)
            return _RecordedFile(self, fh, name)
        return open_

    def _close(self, real):
        def close(fd):
            return self._run(Call("close", self._paths.pop(fd, "")), lambda: real(fd))
        return close

    def _pread(self, real):
        def pread(fd, n, offset):
            return self._run(Call("pread", self._paths.get(fd, ""), offset, n),
                             lambda: real(fd, n, offset), lambda m: real(fd, m, offset))
        return pread

    def _preadv(self, real):
        def preadv(fd, buffers, offset, *flags):
            n = sum(memoryview(b).nbytes for b in buffers)
            return self._run(Call("preadv", self._paths.get(fd, ""), offset, n),
                             lambda: real(fd, buffers, offset, *flags),
                             lambda m: real(fd, _cut(buffers, m), offset, *flags))
        return preadv

    def _pwrite(self, real):
        def pwrite(fd, data, offset):
            name = self._paths.get(fd, "")

            def write(view):
                done = real(fd, view, offset)
                self._remap(name, offset, offset + done)
                return done
            view = memoryview(data).cast("B")
            return self._run(Call("pwrite", name, offset, len(view)),
                             lambda: write(view), lambda m: write(view[:m]))
        return pwrite

    def _writev(self, real):
        def writev(fd, buffers):
            n = sum(memoryview(b).nbytes for b in buffers)
            return self._run(Call("writev", self._paths.get(fd, ""), None, n),
                             lambda: real(fd, buffers), lambda m: real(fd, _cut(buffers, m)))
        return writev

    def _write(self, real):
        def write(fd, data):
            view = memoryview(data).cast("B")
            return self._run(Call("write", self._paths.get(fd, ""), None, len(view)),
                             lambda: real(fd, view), lambda m: real(fd, view[:m]))
        return write

    def _replace(self, real):
        def replace(src, dst, **kwargs):
            source, target = self._name(src), self._name(dst)

            def rename():
                real(src, dst, **kwargs)
                self._bad[target] = self._bad.pop(source, [])
            return self._run(Call("replace", target), rename)
        return replace

    def _unlink(self, real):
        def unlink(path, **kwargs):
            name = self._name(path)

            def remove():
                real(path, **kwargs)
                self._bad.pop(name, None)
            return self._run(Call("unlink", name), remove)
        return unlink

    def _mkdir(self, real):
        def mkdir(path, *args, **kwargs):
            return self._run(Call("mkdir", self._name(path)), lambda: real(path, *args, **kwargs))
        return mkdir

    def _stat(self, real):
        def stat(path, *args, **kwargs):
            return self._run(Call("stat", self._name(path)), lambda: real(path, *args, **kwargs))
        return stat


class _RecordedFile:
    """A file that ``open`` returned, whose reads and writes go through its
    ``RecordedOS``; the range of a read or write starts where the file
    stands."""

    def __init__(self, recorder: RecordedOS, fh, path: str):
        self._recorder, self._fh, self._path = recorder, fh, path

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def _where(self) -> int | None:
        return self._fh.tell() if self._fh.seekable() else None

    def readall(self):
        return self._recorder._run(Call("readall", self._path, self._where()),
                                   self._fh.readall, self._fh.read)

    def write(self, data):
        return self._recorder._run(Call("write", self._path, self._where(), len(data)),
                                   lambda: self._fh.write(data),
                                   lambda m: self._fh.write(data[:m]))


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
