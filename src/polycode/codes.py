"""Storage coding schemes with inherent double replication.

Schemes
-------
``Replication(r)``   one data block stored r times on distinct nodes.
``RaidMirror(k)``    k data blocks plus one XOR parity, every coded block
                     mirrored on its own pair of nodes (code length 2(k+1)).
``Polygon(n)``       complete-graph code: one coded block per edge of K_n,
                     stored at both endpoint nodes; the last edge in
                     lexicographic order carries the XOR parity.  n=5 is the
                     pentagon code, n=7 the heptagon code.
``HeptagonLocal()``  two Polygon(7) groups on disjoint node sets plus a
                     single extra node holding two GF(2^8) global parities
                     over all 40 data blocks (coefficients alpha^i and
                     alpha^{2i} with alpha = 0x02).

Block ids are stripe-local integers.  Node ids in recoverability checks and
repair plans are canonical slots ``0 .. code_length-1``; ``build_layout``
maps slots onto a concrete node pool.

Repair plans model every network movement as one block-sized transfer whose
payload is either a whole block or a partial parity (a GF-linear combination
of blocks computed at the source node).  Plain XOR partials carry
coefficient 1 on every term; the heptagon-local global parities additionally
need alpha-weighted partials.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .gf256 import gf_inv, gf_mul, gf_pow, scale_bytes


class CodeError(Exception):
    """Base class for coding-layer failures."""


class UnrecoverableError(CodeError):
    """The erasure pattern destroys information; decode/repair cannot proceed."""


class InconsistentStripeError(CodeError):
    """Surviving bytes violate the parity relations: corruption signal."""


class MissingBlockError(CodeError):
    """A plan referenced a source block the accessor cannot serve."""


class ChecksumMismatchError(CodeError):
    """A source block's bytes do not match its recorded CRC32."""


class BlockAvailableError(CodeError):
    """Degraded read requested for a block that still has a live copy."""


# ---------------------------------------------------------------------------
# Scheme descriptors


@dataclass(frozen=True)
class Replication:
    copies: int = 2

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("replication factor must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.copies}-rep"

    code_length = property(lambda self: self.copies)
    data_block_count = property(lambda self: 1)
    block_count = property(lambda self: 1)
    stored_block_count = property(lambda self: self.copies)


@dataclass(frozen=True)
class RaidMirror:
    """k data blocks + 1 XOR parity, each of the k+1 blocks mirrored."""

    data_blocks: int

    def __post_init__(self):
        if self.data_blocks < 1:
            raise ValueError("need at least one data block")

    @property
    def name(self) -> str:
        return f"raidm-{self.data_blocks}"

    code_length = property(lambda self: 2 * (self.data_blocks + 1))
    data_block_count = property(lambda self: self.data_blocks)
    block_count = property(lambda self: self.data_blocks + 1)
    stored_block_count = property(lambda self: 2 * (self.data_blocks + 1))


@dataclass(frozen=True)
class Polygon:
    nodes: int

    def __post_init__(self):
        if self.nodes < 3:
            raise ValueError("polygon codes need at least 3 nodes")

    @property
    def name(self) -> str:
        if self.nodes == 5:
            return "pentagon"
        if self.nodes == 7:
            return "heptagon"
        return f"polygon-{self.nodes}"

    code_length = property(lambda self: self.nodes)
    block_count = property(lambda self: self.nodes * (self.nodes - 1) // 2)
    data_block_count = property(lambda self: self.block_count - 1)
    stored_block_count = property(lambda self: 2 * self.block_count)


@dataclass(frozen=True)
class HeptagonLocal:
    @property
    def name(self) -> str:
        return "heptagon-local"

    code_length = property(lambda self: 15)
    data_block_count = property(lambda self: 40)
    block_count = property(lambda self: 44)
    # two mirrored heptagons (2*42) plus two single-copy global parities
    stored_block_count = property(lambda self: 86)


Scheme = Replication | RaidMirror | Polygon | HeptagonLocal


def parse_scheme(text: str) -> Scheme:
    """Parse a scheme selector such as ``pentagon``, ``3-rep``, ``raidm-9``
    or ``polygon-6``.  Inverse of ``scheme.name``."""
    t = text.strip().lower()
    if t == "pentagon":
        return Polygon(5)
    if t == "heptagon":
        return Polygon(7)
    if t == "heptagon-local":
        return HeptagonLocal()
    if t.endswith("-rep"):
        return Replication(int(t[: -len("-rep")]))
    if t.startswith("raidm-"):
        return RaidMirror(int(t[len("raidm-"):]))
    if t.startswith("polygon-"):
        return Polygon(int(t[len("polygon-"):]))
    raise ValueError(f"unknown scheme: {text!r}")


def storage_overhead(scheme: Scheme) -> Fraction:
    """Stored blocks per data block, as an exact rational."""
    return Fraction(scheme.stored_block_count, scheme.data_block_count)


@dataclass(frozen=True)
class BlockRole:
    kind: str  # "data" | "local_parity" | "global_parity"
    index: int  # data index, local parity group, or global parity index

    def as_string(self) -> str:
        return f"{self.kind}:{self.index}"


def polygon_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in lexicographic order; block id == position."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class _Group(NamedTuple):
    """A complete-graph local group: local node i plays slot ``slots[i]``
    and ``block_of[(i, j)]`` (i < j, lexicographic order) is the block on
    edge (i, j).  The group's blocks XOR to zero."""

    slots: tuple[int, ...]
    block_of: dict[tuple[int, int], int]

    def failed(self, down) -> list[int]:
        """Local indices of the group's nodes in *down*, ascending."""
        return [i for i, s in enumerate(self.slots) if s in down]

    def internal(self, failed) -> list[tuple[tuple[int, int], int]]:
        """(edge, block) for every edge joining two *failed* local nodes."""
        return [(e, b) for e, b in self.block_of.items() if e[0] in failed and e[1] in failed]


class _Geometry:
    """Canonical block placement, roles and coefficient rows for a scheme:
    the one description of a scheme's structure that encoding, planning,
    the store, the locality simulator and the reliability chain read.

    ``placements[b]``    slots holding block b, in replica order
    ``data_masks``       (slot mask, data index) per data block, by block id;
                         bit s of a slot mask set == the block is on slot s
    ``parity_masks``     (slot mask, row) per parity block, by block id
    ``roles[b]``         b's ``BlockRole``
    ``rows[b]``          b's coefficient vector over the data symbols
    ``data_block_of[i]`` block id of data symbol i
    ``blocks_on[s]``     blocks stored on slot s, ascending: the order of a
                         node's file of a stripe in the block store
    ``groups``           complete-graph local groups (``_Group``): one for a
                         polygon, two for heptagon-local, none otherwise
    ``group_of[b]``      the group whose edge carries block b
    ``global_slot``      slot holding the global parities, or None
    ``global_blocks``    global parity block ids in parity-index order
    ``fate``             failure mask -> recoverable, filled by ``recoverable``
    """

    def __init__(self, scheme: Scheme):
        L = scheme.code_length
        D = scheme.data_block_count
        placements: dict[int, tuple[int, ...]] = {}
        roles: dict[int, BlockRole] = {}
        rows: dict[int, tuple[int, ...]] = {}
        groups: list[_Group] = []
        self.global_slot: int | None = None

        def unit(i):
            row = [0] * D
            row[i] = 1
            return tuple(row)

        if isinstance(scheme, Replication):
            placements[0] = tuple(range(L))
            roles[0] = BlockRole("data", 0)
            rows[0] = unit(0)
        elif isinstance(scheme, RaidMirror):
            for b in range(scheme.block_count):
                placements[b] = (2 * b, 2 * b + 1)
                if b < D:
                    roles[b] = BlockRole("data", b)
                    rows[b] = unit(b)
                else:
                    roles[b] = BlockRole("local_parity", 0)
                    rows[b] = tuple([1] * D)
        elif isinstance(scheme, (Polygon, HeptagonLocal)):
            # heptagon-local: two heptagons on slots 0-6 and 7-13, each with
            # its own XOR parity on its last edge, plus the global node
            n, count = (scheme.nodes, 1) if isinstance(scheme, Polygon) else (7, 2)
            edges = polygon_edges(n)
            per_group = len(edges) - 1  # data blocks per group
            for k in range(count):
                slots = tuple(range(k * n, (k + 1) * n))
                block_of = {e: k * len(edges) + x for x, e in enumerate(edges)}
                groups.append(_Group(slots, block_of))
                first = k * per_group
                for x, (i, j) in enumerate(edges):
                    b = block_of[(i, j)]
                    placements[b] = (slots[i], slots[j])
                    if x < per_group:
                        roles[b] = BlockRole("data", first + x)
                        rows[b] = unit(first + x)
                    else:
                        roles[b] = BlockRole("local_parity", k)
                        rows[b] = tuple(int(first <= d < first + per_group) for d in range(D))
            if isinstance(scheme, HeptagonLocal):
                self.global_slot = count * n
                for g in (0, 1):
                    b = count * len(edges) + g
                    placements[b] = (self.global_slot,)
                    roles[b] = BlockRole("global_parity", g)
                    rows[b] = tuple(gf_pow(2, (g + 1) * i) for i in range(D))
        else:  # pragma: no cover
            raise TypeError(f"unknown scheme type: {scheme!r}")

        self.placements = placements
        slot_masks = {b: sum(1 << s for s in slots) for b, slots in placements.items()}
        self.data_masks = tuple(
            (slot_masks[b], roles[b].index) for b in roles if roles[b].kind == "data"
        )
        self.parity_masks = tuple(
            (slot_masks[b], rows[b]) for b in roles if roles[b].kind != "data"
        )
        self.roles = roles
        self.rows = rows
        self.data_block_of = {
            roles[b].index: b for b in roles if roles[b].kind == "data"
        }
        self.blocks_on: dict[int, tuple[int, ...]] = {
            s: tuple(b for b in placements if s in placements[b]) for s in range(L)
        }
        self.groups = tuple(groups)
        self.group_of = {b: g for g in groups for b in g.block_of.values()}
        self.global_blocks = tuple(b for b in roles if roles[b].kind == "global_parity")
        self.fate: dict[int, bool] = {}

    def recoverable(self, mask: int) -> bool:
        """True iff the blocks left when the slots in *mask* fail (bit s set
        == slot s failed) determine every data block, kept in ``fate``.

        A miss reads the slot masks: with no data block lost on every slot
        it is True at once, and otherwise the parity rows still live
        somewhere must solve for the lost data symbols."""
        ok = self.fate.get(mask)
        if ok is None:
            lost = [i for slots, i in self.data_masks if slots & mask == slots]
            ok = self.fate[mask] = not lost or _solves(
                (row for slots, row in self.parity_masks if slots & ~mask), lost
            )
        return ok


@lru_cache(maxsize=None)
def _geometry(scheme: Scheme) -> _Geometry:
    return _Geometry(scheme)


def build_layout(scheme: Scheme, node_pool: Iterable[int], seed: int) -> tuple[int, ...]:
    """Map the scheme's canonical slots onto nodes from *node_pool*: the
    node order, whose entry s is the node that plays slot s.

    Polygon and heptagon-local layouts are fixed by construction (first
    ``code_length`` pool nodes in order); replication and RAID+m draw
    seed-deterministic distinct random nodes.
    """
    pool = list(node_pool)
    L = scheme.code_length
    if len(pool) < L:
        raise ValueError(f"node pool too small: {len(pool)} < {L}")
    if _geometry(scheme).groups:
        return tuple(pool[:L])
    return tuple(random.Random(seed).sample(pool, L))


# ---------------------------------------------------------------------------
# GF(2^8) linear algebra


def _reduced_basis(vectors: Iterable[int]) -> list[int]:
    """A reduced GF(2) basis of the span of *vectors*, ints read as bit
    vectors: the lowest set bit of each basis vector, its pivot, is clear in
    every other, so a vector of the span is the XOR of the basis vectors
    whose pivots it has set."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v & b & -b:
                v ^= b
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis]
            basis.append(v)
    return basis


class _Sums:
    """GF(2^8)-linear sums over a set of inputs, built by feeding each input
    once.  ``terms[target]`` lists a target's (input key, coefficient)
    pairs; an input may appear in many targets, or twice in one.

    Blocks are summed as little-endian ints, an input's int form is made at
    most once, and nothing of an input is kept once it has been fed.  A
    target whose coefficients are all 0 and 1 is a plain XOR, built as its
    inputs are fed.

    Every other target is scaled.  Multiplying by c is GF(2)-linear: c*d is
    the XOR of 2^b*d over the set bits b of c.  So each input's coefficients
    across the scaled targets stack into one bit vector, 8 bits a target,
    and over a reduced GF(2) basis B_j of those vectors every scaled target
    is the sum, over j, of its byte of B_j times plane j, the XOR of the
    inputs whose vectors have B_j's pivot set.  An input is only XORed into
    its planes as it is fed.  When the first scaled target is taken, which
    needs every input fed, each plane becomes bytes once, is scaled at most
    once per scaled target and is dropped.  A target with d distinct
    coefficients above 1 thus takes at most min(8, d) scalings of its own.
    The two heptagon-local global parities need 8 planes, not 16: their
    coefficients are alpha^i and alpha^(2i) = (alpha^i)^2, and squaring is
    GF(2)-linear.
    """

    def __init__(self, terms: Mapping, width: int | None = None):
        self.width = width  # block length in bytes; may be set before the first feed
        self._uses: dict = {}  # input key -> the XOR targets it goes into, once a term
        self._acc: dict = {}  # target -> XOR of its finished terms
        self._coords: dict = {}  # input key -> the planes it goes into
        scaled = [t for t, pairs in terms.items() if any(c > 1 for _, c in pairs)]
        self._scaled = set(scaled)
        vectors: dict = {}
        for w, target in enumerate(scaled):
            for key, coef in terms[target]:
                vectors[key] = vectors.get(key, 0) ^ coef << 8 * w
        basis = _reduced_basis(vectors.values())
        # plane -> [(scaled target, nonzero coef)], unit coefficients first,
        # so a plane's int can go once it is bytes
        self._rows: list[list] = [
            sorted(
                ((t, b >> 8 * w & 0xFF) for w, t in enumerate(scaled) if b >> 8 * w & 0xFF),
                key=lambda tc: tc[1] != 1,
            )
            for b in basis
        ]
        self._planes = [0] * len(basis)  # plane -> XOR of the inputs fed into it
        pivots = [b & -b for b in basis]
        for key, v in vectors.items():
            planes = [j for j, p in enumerate(pivots) if v & p]
            if planes:
                self._coords[key] = planes
        for target, pairs in terms.items():
            if target not in self._scaled:
                for key, coef in pairs:
                    if coef:
                        self._uses.setdefault(key, []).append(target)

    def feed(self, key, data) -> None:
        """Add input *key*, any bytes-like object of ``width`` bytes, to
        every target that uses it."""
        planes = self._coords.pop(key, ())
        targets = self._uses.pop(key, ())
        if planes or targets:
            value = int.from_bytes(data, "little")
            for j in planes:
                self._planes[j] ^= value
            acc = self._acc
            for target in targets:
                acc[target] = acc.get(target, 0) ^ value

    def take(self, target) -> int:
        """*target*'s finished sum as an int; the sums forget it."""
        if target in self._scaled and self._rows:
            self._spread()
        return self._acc.pop(target, 0)

    def _spread(self) -> None:
        """Add each plane, scaled, into every scaled target, one plane at a
        time, dropping each plane once it is scaled."""
        if self._coords:
            raise ValueError("a scaled sum is taken before every input is fed")
        acc, planes, rows = self._acc, self._planes, self._rows
        self._planes, self._rows = [], []
        for j, row in enumerate(rows):
            plane, planes[j] = planes[j], 0
            body = None
            for target, coef in row:
                if coef == 1:
                    term = plane
                else:
                    if body is None:
                        body, plane = plane.to_bytes(self.width, "little"), None
                    term = int.from_bytes(scale_bytes(coef, body), "little")
                acc[target] = acc[target] ^ term if target in acc else term
                del term  # before the next term is made


def _eliminate(rows: list[list[int]], ncols: int) -> int:
    """Gauss-Jordan over GF(2^8) on the first *ncols* columns of *rows*,
    in place; further columns ride along.  Returns the rank r: afterwards
    ``rows[:r]`` carry the pivots in column order and ``rows[r:]`` are zero
    on the first *ncols* columns."""
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = gf_inv(prow[col])
        if inv != 1:
            rows[rank] = prow = [gf_mul(inv, v) for v in prow]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v ^ gf_mul(f, p) for v, p in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _transform(rows: list[list[int]], ncols: int) -> tuple[int, list[list[int]]]:
    """Reduce ``[rows | I]``.  Returns (rank, T) where ``T[k]`` combines the
    input rows into reduced row k; for a square full-rank matrix T is its
    inverse."""
    n = len(rows)
    aug = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(rows)]
    rank = _eliminate(aug, ncols)
    return rank, [row[ncols:] for row in aug]


# ---------------------------------------------------------------------------
# Encoding


class StripeEncoder:
    """Encode one stripe fed a data block at a time.  Each block goes into
    the parity sums as it arrives and nothing of it is kept, so a caller
    may read every block into the same buffer.  The XOR parities are plain
    sums; the heptagon-local global parities are ``_Sums``' scaled targets,
    summed through 8 shared bit-planes.  ``parities()`` yields the parity
    blocks once each data block has been fed exactly once."""

    def __init__(self, scheme: Scheme, width: int):
        geo = _geometry(scheme)
        self.width = width
        self._parities = [b for b, role in geo.roles.items() if role.kind != "data"]
        self._sums = _Sums({b: list(enumerate(geo.rows[b])) for b in self._parities}, width)
        self._unfed = set(range(scheme.data_block_count))

    def feed(self, index: int, block) -> None:
        """Add data block *index* (any bytes-like object of ``width`` bytes)."""
        if len(block) != self.width:
            raise ValueError("data blocks differ in length")
        if index not in self._unfed:
            raise ValueError(f"data block {index} is unknown or already fed")
        self._unfed.remove(index)
        self._sums.feed(index, block)

    def parities(self) -> Iterator[tuple[int, bytes]]:
        """(parity block id, bytes) in block-role order, each made as it is
        asked for, so a caller that writes and drops it holds one."""
        if self._unfed:
            raise ValueError(f"data blocks {sorted(self._unfed)} were not fed")
        for b in self._parities:
            yield b, self._sums.take(b).to_bytes(self.width, "little")


def encode_stripe(scheme: Scheme, data: list[bytes]) -> dict[int, bytes]:
    """Encode one stripe of data blocks into the scheme's coded blocks."""
    D = scheme.data_block_count
    if len(data) != D:
        raise ValueError(f"expected {D} data blocks, got {len(data)}")
    encoder = StripeEncoder(scheme, len(data[0]) if data else 0)
    for i, block in enumerate(data):
        encoder.feed(i, block)
    parities = dict(encoder.parities())
    return {
        b: bytes(data[role.index]) if role.kind == "data" else parities[b]
        for b, role in _geometry(scheme).roles.items()
    }


# ---------------------------------------------------------------------------
# Recoverability


def can_decode_from(scheme: Scheme, present_blocks: Iterable[int]) -> bool:
    """True iff the given set of distinct surviving blocks determines every
    data block (rank of the known-symbol system over GF(2^8))."""
    geo = _geometry(scheme)
    present = set(present_blocks)
    known = {geo.roles[b].index for b in present if geo.roles[b].kind == "data"}
    unknown = [i for i in range(scheme.data_block_count) if i not in known]
    if not unknown:
        return True
    return _solves(
        [geo.rows[b] for b in present if geo.roles[b].kind != "data"], unknown
    )


def _solves(rows: Iterable[tuple[int, ...]], unknown: list[int]) -> bool:
    """True iff the parity *rows* determine the data symbols *unknown*, the
    others being known: their columns of *rows* have full rank."""
    reduced = []
    for row in rows:
        part = [row[i] for i in unknown]
        if any(part):
            reduced.append(part)
    if len(reduced) < len(unknown):
        return False
    return _eliminate(reduced, len(unknown)) == len(unknown)


def _iter_pattern(scheme, pattern):
    L = scheme.code_length
    for n in pattern:
        if not 0 <= n < L:
            raise ValueError(f"node {n} outside code length {L}")
        yield n


def is_recoverable_mask(scheme: Scheme, mask: int) -> bool:
    """Bitmask variant of ``is_recoverable`` (bit i set == slot i failed),
    read from the geometry's fate table."""
    return _geometry(scheme).recoverable(mask)


def is_recoverable(scheme: Scheme, failed_nodes: Iterable[int]) -> bool:
    """True iff the surviving blocks determine all data blocks."""
    mask = 0
    for n in _iter_pattern(scheme, failed_nodes):
        mask |= 1 << n
    return is_recoverable_mask(scheme, mask)


def tolerance(scheme: Scheme) -> int:
    """Largest t such that every t-node erasure pattern is recoverable,
    found by exhaustive search."""
    L = scheme.code_length
    for f in range(1, L + 1):
        for pattern in itertools.combinations(range(L), f):
            if not is_recoverable(scheme, pattern):
                return f - 1
    return L


# ---------------------------------------------------------------------------
# Decoding


def _flatten_surviving(
    scheme: Scheme, surviving: Mapping[int, Mapping[int, bytes]], pattern
) -> dict[int, bytes]:
    geo = _geometry(scheme)
    failed = set(pattern)
    present: dict[int, bytes] = {}
    for node, blocks in surviving.items():
        if node in failed:
            raise ValueError(f"node {node} is both failed and surviving")
        for b, data in blocks.items():
            if b not in geo.placements:
                raise ValueError(f"unknown block id {b}")
            if node not in geo.placements[b]:
                raise ValueError(f"block {b} does not belong on slot {node}")
            old = present.get(b)
            if old is not None and old != bytes(data):
                raise InconsistentStripeError(
                    f"replicas of block {b} disagree byte-wise"
                )
            present[b] = bytes(data)
    return present


def memory_reader(blocks: Mapping[int, bytes]) -> Callable[[int], bytes]:
    """Block accessor over bytes already in memory and checked; a block not
    among them raises MissingBlockError, as a stripe reader does."""

    def reader(block_id: int) -> bytes:
        body = blocks.get(block_id)
        if body is None:
            raise MissingBlockError(f"no surviving copy of block {block_id}")
        return body

    return reader


def decode_stripe(
    scheme: Scheme,
    surviving: Mapping[int, Mapping[int, bytes]],
    pattern: Iterable[int] = (),
) -> list[bytes]:
    """Recover all data blocks from surviving node contents.

    *surviving* maps canonical slot -> {block id -> bytes}; *pattern* is the
    failed-slot set (checked for recoverability up front).  A data block
    with a surviving copy is used as is.  One without is rebuilt by running
    its degraded-read plan over the surviving blocks; the plan also rebuilds
    every other block its solve determines, so each group that lost data is
    solved once.  If a plan needs a block that is missing on a live slot,
    or its slot pattern is fatal because of one, the stripe is decoded by
    ``oracle_decode`` instead.  A final pass checks every surviving block
    against the data, each parity as a fresh encode yields it, which turns
    silent corruption into ``InconsistentStripeError``.
    """
    failed = frozenset(pattern)
    if not is_recoverable(scheme, failed):
        raise UnrecoverableError(f"pattern {sorted(failed)} is fatal for {scheme.name}")
    geo = _geometry(scheme)
    present = _flatten_surviving(scheme, surviving, failed)
    if not present:
        raise UnrecoverableError("no surviving blocks given")
    if not can_decode_from(scheme, present):
        # a block left out of *surviving* may be lost on a live slot too
        raise UnrecoverableError("the surviving blocks do not determine the data")
    width = len(next(iter(present.values())))
    if any(len(v) != width for v in present.values()):
        raise ValueError("surviving blocks differ in length")

    reader = memory_reader(present)
    rebuilt: dict[int, bytes] = {}
    result = []
    try:
        for i in range(scheme.data_block_count):
            b = geo.data_block_of[i]
            if b not in present and b not in rebuilt:
                # a block left out of *surviving* counts as lost on every host
                plan = plan_degraded_read(scheme, b, failed | set(geo.placements[b]))
                rebuilt.update(execute_plan(plan, reader))
            result.append(present[b] if b in present else rebuilt[b])
    except (MissingBlockError, UnrecoverableError):
        # plans see only slots, so one may route through a block missing on
        # a live slot, or find the slots of such a block fatal;
        # can_decode_from above shows the full solve succeeds
        result = oracle_decode(scheme, present)

    # verify every surviving block against the data: a data block as is, a
    # parity as a fresh encode yields it, so one parity is held at a time
    encoder = StripeEncoder(scheme, width)
    for i, block in enumerate(result):
        b = geo.data_block_of[i]
        if b in present and present[b] != block:
            raise InconsistentStripeError(f"block {b} violates the stripe's parity relations")
        encoder.feed(i, block)
    for b, parity in encoder.parities():
        if b in present and present[b] != parity:
            raise InconsistentStripeError(f"block {b} violates the stripe's parity relations")
    return result


def oracle_decode(scheme: Scheme, present: Mapping[int, bytes]) -> list[bytes]:
    """Generic decode oracle: full Gaussian elimination of the surviving
    linear system over GF(2^8), no scheme-specific shortcuts.  The only
    full-stripe elimination in the package: it cross-checks the plan-based
    ``decode_stripe``.

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


# ---------------------------------------------------------------------------
# Repair planning

READER_NODE = -1  # destination pseudo-node for degraded reads


@dataclass(frozen=True)
class WholeCopy:
    block_id: int


@dataclass(frozen=True)
class PartialParity:
    """GF-linear combination computed at the source node.

    ``terms`` holds (block id, coefficient) pairs; coefficient 1 on every
    term is a plain XOR partial.
    """

    terms: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Transfer:
    src: int
    dst: int
    payload: WholeCopy | PartialParity
    delivers: bool = False  # True: this copy re-materializes the block at dst


@dataclass(frozen=True)
class Recovery:
    """A lost block expressed as a GF-linear combination of transfer payloads."""

    block_id: int
    terms: tuple[tuple[int, int], ...]  # (transfer index, coefficient)

    @property
    def ready_after(self) -> int:
        return max(i for i, _ in self.terms)


@dataclass(frozen=True)
class RepairPlan:
    transfers: tuple[Transfer, ...]
    recoveries: tuple[Recovery, ...] = ()

    @property
    def bandwidth_blocks(self) -> int:
        return len(self.transfers)


class _PlanBuilder:
    """Accumulates one plan's transfers and recoveries for a scheme and a
    set of down slots.  ``recovered`` maps a data index rebuilt earlier in
    the plan to the slot that holds the rebuilt copy; ``covers`` maps
    (data index, destination) to the XOR partial terms already sent there
    for a data block with no copy left."""

    def __init__(self, scheme: Scheme, down: frozenset[int]):
        self.geo = _geometry(scheme)
        self.down = down
        self.recovered: dict[int, int] = {}
        self.covers: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.transfers: list[Transfer] = []
        self.recoveries: list[Recovery] = []

    def copy(self, src, dst, block_id, delivers=True) -> int:
        self.transfers.append(Transfer(src, dst, WholeCopy(block_id), delivers))
        return len(self.transfers) - 1

    def partial(self, src, dst, terms) -> int:
        terms = tuple((b, c) for b, c in terms)
        if not terms:
            raise ValueError("empty partial parity")
        self.transfers.append(Transfer(src, dst, PartialParity(terms)))
        return len(self.transfers) - 1

    def recover(self, block_id, terms) -> None:
        self.recoveries.append(Recovery(block_id, tuple(terms)))

    def done(self) -> RepairPlan:
        recs = tuple(sorted(self.recoveries, key=lambda r: r.ready_after))
        return RepairPlan(tuple(self.transfers), recs)


def _group_xor(builder, group: _Group, failed: list[int], dst: int):
    """One XOR partial per surviving node of *group*, sent to *dst*, that
    together cover every block of the group not on an edge between two
    *failed* nodes: an edge touching a failed node goes to its surviving
    end, a survivor-survivor edge to its lower end.  Their sum is the XOR
    of the blocks between failed nodes.  Returns (transfer, 1) terms."""
    cover: dict[int, list[tuple[int, int]]] = {}
    for (i, j), b in group.block_of.items():
        if i in failed and j in failed:
            continue
        owner = j if i in failed else i
        cover.setdefault(owner, []).append((b, 1))
    return [(builder.partial(group.slots[s], dst, cover[s]), 1) for s in sorted(cover)]


def _global_terms(builder, block: int, dst: int, skip):
    """Transfer terms, sent to *dst*, whose sum is global parity *block*'s
    alpha-weighted sum over every data block whose index is not in *skip*.

    Each data block is read from its lowest live host, else from the slot
    holding a copy rebuilt earlier in the plan, else through the XOR
    partials of its group, sent once per destination.
    """
    geo = builder.geo
    row = geo.rows[block]
    by_src: dict[int, list[tuple[int, int]]] = {}
    cover_terms = []
    for i, b in geo.data_block_of.items():
        if i in skip:
            continue
        alive = [s for s in geo.placements[b] if s not in builder.down]
        if alive:
            src = min(alive)
        elif i in builder.recovered:
            src = builder.recovered[i]
        else:
            cover = builder.covers.get((i, dst))
            if cover is None:
                group = geo.group_of[b]
                cover = _group_xor(builder, group, group.failed(builder.down), dst)
                builder.covers[i, dst] = cover
            cover_terms.extend((idx, row[i]) for idx, _ in cover)
            continue
        by_src.setdefault(src, []).append((b, row[i]))
    terms = [(builder.partial(src, dst, by_src[src]), 1) for src in sorted(by_src)]
    return terms + cover_terms


def _solve_group(builder, group: _Group, failed: list[int], dst: int):
    """Rebuild at *dst* every block on an edge between *failed* nodes of
    *group*.

    The group's XOR relation determines one lost block; more lost blocks
    add the global parity relations, each read whole from the global node
    and offset by the weighted sum of the known data.
    """
    geo = builder.geo
    unknowns = [b for _, b in group.internal(failed)]
    equations = [_group_xor(builder, group, failed, dst)]
    matrix = [[1] * len(unknowns)]
    if len(unknowns) > 1:
        roles = [geo.roles[b] for b in unknowns]
        unknown_data = {r.index for r in roles if r.kind == "data"}
        for gb in geo.global_blocks:
            whole = builder.copy(geo.global_slot, dst, gb, delivers=False)
            terms = _global_terms(builder, gb, dst, unknown_data)
            equations.append([(whole, 1), *terms])
            row = geo.rows[gb]
            matrix.append([row[r.index] if r.kind == "data" else 0 for r in roles])
    _, inverse = _transform(matrix, len(unknowns))
    for j, b in enumerate(unknowns):
        terms = [
            (idx, gf_mul(inverse[j][k], c))
            for k, eq in enumerate(equations)
            if inverse[j][k]
            for idx, c in eq
        ]
        builder.recover(b, terms)


def _repair_group(builder, group: _Group, failed: list[int]) -> None:
    """Restore every block of *group* lost with its 1-3 *failed* nodes.

    Survivors copy each failed node its edge blocks; the blocks between
    failed nodes are solved at the lowest failed node and copied on to
    their other hosts.  Triples are solved before the survivor copies and
    pairs after, which fixes the plans' transfer order.
    """
    solver = group.slots[failed[0]]
    if len(failed) == 3:
        _solve_group(builder, group, failed, solver)
    for s in range(len(group.slots)):
        if s in failed:
            continue
        for f in failed:
            builder.copy(group.slots[s], group.slots[f], group.block_of[min(s, f), max(s, f)])
    if len(failed) == 2:
        _solve_group(builder, group, failed, solver)
    for edge, b in group.internal(failed):
        for host in edge:
            if group.slots[host] != solver:
                builder.copy(solver, group.slots[host], b)
        role = builder.geo.roles[b]
        if role.kind == "data":
            builder.recovered[role.index] = solver


def _mirror_rebuild(builder, block: int, dst: int) -> None:
    """Rebuild RAID+m *block* at *dst* as the XOR of a whole copy of every
    other block of the stripe, each from its lowest live host."""
    idxs = [
        builder.copy(min(s for s in slots if s not in builder.down), dst, other, delivers=False)
        for other, slots in sorted(builder.geo.placements.items())
        if other != block
    ]
    builder.recover(block, [(i, 1) for i in idxs])


def plan_repair(scheme: Scheme, pattern: Iterable[int]) -> RepairPlan:
    """Plan the transfers that restore every block lost by *pattern*; it
    refuses only a fatal pattern, with ``UnrecoverableError``.

    Polygon singles move n-1 whole copies; polygon doubles move 2(n-2)
    copies, n-2 partial parities and one redistribution copy (3(n-2)+1
    total).  Heptagon-local failures are planned locally per heptagon, with
    triples solved from the other heptagon plus the global node.  Without
    groups, a block with a live copy is copied whole from its lowest live
    host to each failed one, and a RAID+m block lost on both hosts is
    rebuilt from every other block.
    """
    failed = frozenset(_iter_pattern(scheme, pattern))
    if not failed:
        return RepairPlan(())
    if not is_recoverable(scheme, failed):
        raise UnrecoverableError(f"pattern {sorted(failed)} is fatal for {scheme.name}")
    builder = _PlanBuilder(scheme, failed)
    geo = builder.geo

    if geo.groups:
        for group in geo.groups:
            lost = group.failed(failed)
            if lost:
                _repair_group(builder, group, lost)
        if geo.global_slot in failed:
            for gb in geo.global_blocks:
                builder.recover(gb, _global_terms(builder, gb, geo.global_slot, ()))
        return builder.done()

    fully_lost = []
    for b, slots in sorted(geo.placements.items()):
        lost = [s for s in slots if s in failed]
        alive = [s for s in slots if s not in failed]
        if not lost:
            continue
        if alive:
            for f in lost:
                builder.copy(alive[0], f, b)
        else:
            fully_lost.append(b)
    for b in fully_lost:
        dst = min(geo.placements[b])
        _mirror_rebuild(builder, b, dst)
        builder.copy(dst, max(geo.placements[b]), b)
    return builder.done()


def plan_degraded_read(
    scheme: Scheme, block_id: int, down_nodes: Iterable[int]
) -> RepairPlan:
    """Plan the minimal transfers that deliver one fully-lost block to a
    designated reader (pseudo-node ``READER_NODE``).

    The plan's recoveries also rebuild, from the same transfers, every other
    block its solve determines: in a polygon group, each block on an edge
    between the group's failed nodes."""
    geo = _geometry(scheme)
    if block_id not in geo.placements:
        raise ValueError(f"unknown block id {block_id}")
    down = frozenset(_iter_pattern(scheme, down_nodes))
    hosts = geo.placements[block_id]
    if any(h not in down for h in hosts):
        raise BlockAvailableError(f"block {block_id} still has a live copy")
    if not is_recoverable(scheme, down):
        raise UnrecoverableError(f"pattern {sorted(down)} is fatal for {scheme.name}")

    builder = _PlanBuilder(scheme, down)
    if block_id in geo.global_blocks:
        builder.recover(block_id, _global_terms(builder, block_id, READER_NODE, ()))
    elif geo.groups:
        group = geo.group_of[block_id]
        _solve_group(builder, group, group.failed(down), READER_NODE)
    else:
        _mirror_rebuild(builder, block_id, READER_NODE)
    return builder.done()


# ---------------------------------------------------------------------------
# Plan execution


def _compose(pairs) -> dict[int, int]:
    """The sum of coef * form over (form, coef) *pairs*, each form a map
    from source block to coefficient."""
    out: dict[int, int] = {}
    for form, coef in pairs:
        if not coef:
            continue
        for b, c in form.items():
            out[b] = out.get(b, 0) ^ (c if coef == 1 else gf_mul(coef, c))
    return out


def execute_plan(plan: RepairPlan, reader: Callable[[int], bytes]) -> dict[int, bytes]:
    """Run a plan against a block accessor, returning recovered blocks.

    The accessor serves surviving blocks and may raise MissingBlockError or
    ChecksumMismatchError; blocks recovered earlier in the plan are readable
    by later transfers.

    The plan is composed before any byte moves.  One pass walks the
    transfers in plan order and writes each payload, and each recovery as
    it becomes ready, as a GF(2^8)-linear map over the blocks the accessor
    serves, substituting a recovered block's map wherever a later transfer
    reads it.  Then each source block is read once, in first-need order,
    and fed into one ``_Sums`` whose targets are the blocks the plan
    returns, so the terms of every recovery meet in one sum and the scaled
    ones share bit-planes.  A source is dropped once fed unless a
    delivering whole copy returns it: such a block is the accessor's bytes.
    Each recovered block becomes bytes once, one at a time.
    """
    transfers, recoveries = plan.transfers, plan.recoveries
    sources: dict[int, None] = {}  # blocks the accessor serves, in first-need order
    version: dict[int, dict] = {}  # block -> its latest recovered form
    forms: list[dict] = []  # transfer -> its payload's form
    out: dict[int, dict | None] = {}  # block returned -> its form, None for served bytes

    def form(b: int) -> dict:
        f = version.get(b)
        if f is None:
            sources[b] = None
            return {b: 1}
        return f

    k = 0
    for idx in range(len(transfers) + 1):  # the last round settles the recoveries left
        while k < len(recoveries) and recoveries[k].ready_after < idx:
            rec = recoveries[k]
            version[rec.block_id] = out[rec.block_id] = _compose(
                (forms[i], c) for i, c in rec.terms
            )
            k += 1
        if idx == len(transfers):
            break
        tr = transfers[idx]
        p = tr.payload
        if isinstance(p, WholeCopy):
            if tr.delivers and p.block_id not in version:
                out[p.block_id] = None
            forms.append(form(p.block_id))
        else:
            forms.append(_compose((form(b), c) for b, c in p.terms))
    if k < len(recoveries):
        raise AssertionError("plan recoveries reference transfers that never ran")

    sums = _Sums({b: list(f.items()) for b, f in out.items() if f is not None})
    served: dict[int, bytes] = {}
    for b in sources:
        data = reader(b)
        if sums.width is None:
            sums.width = len(data)
        elif len(data) != sums.width:
            raise ValueError("blocks differ in length")
        sums.feed(b, data)
        if b in out and out[b] is None:
            served[b] = data
        del data  # not held while the next source is read or the sums are taken
    return {
        b: served.pop(b) if f is None else sums.take(b).to_bytes(sums.width, "little")
        for b, f in out.items()
    }
