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

A scheme class states only its parameters, its name and their checks.
Where each block lives is ``_geometry``'s alone, and a scheme's counts
(``code_length`` slots, ``data_block_count``, ``block_count`` and
``stored_block_count``) are read from it once (``_Counts``).

Block ids are stripe-local integers.  Node ids in recoverability checks and
repair plans are canonical slots ``0 .. code_length-1``; ``build_layout``
maps slots onto a concrete node pool.

Repair plans model every network movement as one block-sized transfer whose
payload is either a whole block or a partial parity (a GF-linear combination
of blocks computed at the source node).  Plain XOR partials carry
coefficient 1 on every term; the heptagon-local global parities additionally
need alpha-weighted partials.

One planner serves every loss, whole slots down or single replicas corrupt.
A block with a good replica is copied whole.  The lost data symbols are
solved from the good parity rows that an elimination picks as pivots: each
pivot row less the known data it covers is one equation, and each slot that
holds terms of it sends one partial parity of them, repair by transfer as
in Shah, Rashmi, Kumar and Ramchandran (IEEE Trans. IT, 2012).  The source
slots are the fewest good hosts that hold the terms, and a term the
destination holds good is read there for free.  A lost parity is its row
over the data, rebuilt the same way at its own host.

One stripe reader, ``read_stripe``, serves the block store's reads and
``code decode``: it yields a stripe's data blocks in order from a block
reader and plans a degraded read around each block the reader cannot
serve.  It holds a block plus what a plan holds and keeps, so ``code
decode``, which streams its blocks to the output and then checks each
surviving parity against a fresh encode, peaks at 0.52 of a heptagon-local
stripe with three nodes down.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property, lru_cache
from operator import attrgetter

from .gf256 import gf_inv, gf_mul, gf_pow, scale_bytes

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction


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
    """Degraded read requested for a block that still has a good copy."""


class _Record:
    """Base of polycode's records.  The fields are the class's annotated
    names, in order, given by position or keyword; a field the class gives
    a value defaults to it.  Records are equal when their classes and
    fields are, so ``Polygon(5) != RaidMirror(5)``.  A class made with
    ``frozen=True`` refuses assignment, and hashes by class and fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter("__class__", *cls._fields)  # what equality and hash read
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._refuse
            cls.__hash__ = _Record._hash

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
        kwargs.update(zip(fields, args))
        for name in fields:  # a field left out with no default is an AttributeError
            object.__setattr__(self, name, kwargs[name] if name in kwargs else getattr(cls, name))
        self._check()

    def _check(self) -> None:
        """Refuse field values out of range; nothing to check by default."""

    def __eq__(self, other):
        if not isinstance(other, _Record):
            return NotImplemented
        return self._key(self) == other._key(other)

    def _hash(self) -> int:
        return hash(self._key(self))

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot set {name} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Scheme descriptors


class _Counts(_Record):
    """Every scheme class's counts of slots, data blocks, coded blocks and
    stored replicas, read from its geometry once and kept on the instance."""

    code_length = cached_property(lambda self: len(_geometry(self).blocks_on))
    data_block_count = cached_property(lambda self: len(_geometry(self).data_block_of))
    block_count = cached_property(lambda self: len(_geometry(self).placements))
    stored_block_count = cached_property(
        lambda self: sum(map(len, _geometry(self).placements.values())))


class Replication(_Counts, frozen=True):
    copies: int = 2

    def _check(self):
        if self.copies < 1:
            raise ValueError("replication factor must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.copies}-rep"


class RaidMirror(_Counts, frozen=True):
    """k data blocks + 1 XOR parity, each of the k+1 blocks mirrored."""

    data_blocks: int

    def _check(self):
        if self.data_blocks < 1:
            raise ValueError("need at least one data block")

    @property
    def name(self) -> str:
        return f"raidm-{self.data_blocks}"


class Polygon(_Counts, frozen=True):
    nodes: int

    def _check(self):
        if self.nodes < 3:
            raise ValueError("polygon codes need at least 3 nodes")

    @property
    def name(self) -> str:
        if self.nodes == 5:
            return "pentagon"
        if self.nodes == 7:
            return "heptagon"
        return f"polygon-{self.nodes}"


class HeptagonLocal(_Counts, frozen=True):
    @property
    def name(self) -> str:
        return "heptagon-local"


Scheme = Replication | RaidMirror | Polygon | HeptagonLocal


@lru_cache(maxsize=64)
def parse_scheme(text: str) -> Scheme:
    """Parse a scheme selector such as ``pentagon``, ``3-rep``, ``raidm-9``
    or ``polygon-6``.  Inverse of ``scheme.name``.  Kept per text, so a
    scheme parsed again brings the counts it has read already."""
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
    from fractions import Fraction  # imported here: most commands need no rationals

    return Fraction(scheme.stored_block_count, scheme.data_block_count)


class BlockRole(_Record, frozen=True):
    kind: str  # "data" | "local_parity" | "global_parity"
    index: int  # data index, local parity group, or global parity index

    def as_string(self) -> str:
        return f"{self.kind}:{self.index}"


def polygon_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in lexicographic order; block id == position."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


MAX_BLOCKS = 1 << 10  # a stripe's blocks, and a block's slots: each block has a row over the data


class _Geometry:
    """Canonical block placement, roles and coefficient rows for a scheme:
    the one description of a scheme's structure that encoding, planning,
    the store, the locality simulator and the reliability chain read, and
    the source of every scheme's counts (``_Counts``).

    ``placements[b]``    slots holding block b, in replica order
    ``data_masks``       (slot mask, data index) per data block, by block id;
                         bit s of a slot mask set == the block is on slot s
    ``parity_masks``     (slot mask, row) per parity block, by block id
    ``roles[b]``         b's ``BlockRole``
    ``rows[b]``          b's coefficient vector over the data symbols
    ``data_block_of[i]`` block id of data symbol i
    ``blocks_on[s]``     blocks stored on slot s, ascending: the order of a
                         node's file of a stripe in the block store
    ``groups``           the slots of each complete-graph local group, whose
                         node i plays slot ``group[i]`` and whose blocks XOR
                         to zero: one for a polygon, two for heptagon-local
    ``global_slot``      slot holding the global parities, or None
    ``global_blocks``    global parity block ids in parity-index order
    ``fate``             failure mask -> recoverable, filled by ``recoverable``
    """

    def __init__(self, scheme: Scheme):
        placements: dict[int, tuple[int, ...]] = {}
        roles: dict[int, BlockRole] = {}
        terms: dict[int, dict[int, int]] = {}  # block -> data index -> coefficient
        data_block_of: dict[int, int] = {}
        groups: list[tuple[int, ...]] = []
        self.global_slot: int | None = None

        def bound(count: int) -> None:  # before *count* blocks or slots are laid out
            if count > MAX_BLOCKS:
                raise ValueError(f"{scheme.name} lays out more than {MAX_BLOCKS} blocks or slots")

        def place(slots, kind="data", index=0, over=None) -> None:
            """Lay the next block out on *slots*: the next data block, or
            parity *index* of its *kind* with the coefficients *over*."""
            b = len(placements)
            bound(max(b + 1, len(slots)))
            placements[b] = tuple(slots)
            if kind == "data":
                index, over = len(data_block_of), {len(data_block_of): 1}
                data_block_of[index] = b
            roles[b], terms[b] = BlockRole(kind, index), over

        if isinstance(scheme, Replication):
            place(range(scheme.copies))
        elif isinstance(scheme, RaidMirror):
            k = scheme.data_blocks
            for b in range(k):
                place((2 * b, 2 * b + 1))
            place((2 * k, 2 * k + 1), "local_parity", 0, dict.fromkeys(range(k), 1))
        elif isinstance(scheme, (Polygon, HeptagonLocal)):
            # heptagon-local: two heptagons on slots 0-6 and 7-13, each with
            # its own XOR parity on its last edge, plus the global node
            n, count = (scheme.nodes, 1) if isinstance(scheme, Polygon) else (7, 2)
            bound(n)
            *data_edges, (i, j) = polygon_edges(n)
            for k in range(count):
                slots = tuple(range(k * n, (k + 1) * n))
                groups.append(slots)
                first = len(data_block_of)
                for a, z in data_edges:
                    place((slots[a], slots[z]))
                place((slots[i], slots[j]), "local_parity", k,
                      dict.fromkeys(range(first, len(data_block_of)), 1))
            if isinstance(scheme, HeptagonLocal):
                self.global_slot = count * n
                for g in (0, 1):
                    place((self.global_slot,), "global_parity", g,
                          {d: gf_pow(2, (g + 1) * d) for d in data_block_of})
        else:  # pragma: no cover
            raise TypeError(f"unknown scheme type: {scheme!r}")

        L = 1 + max(max(slots) for slots in placements.values())
        rows = {b: tuple(over.get(d, 0) for d in data_block_of) for b, over in terms.items()}
        self.placements, self.roles, self.rows = placements, roles, rows
        self.data_block_of = data_block_of
        masks = {b: sum(1 << s for s in slots) for b, slots in placements.items()}
        self.data_masks = tuple((masks[b], r.index) for b, r in roles.items() if r.kind == "data")
        self.parity_masks = tuple((masks[b], rows[b]) for b, r in roles.items() if r.kind != "data")
        self.blocks_on: dict[int, tuple[int, ...]] = {
            s: tuple(b for b, slots in placements.items() if s in slots) for s in range(L)}
        self.groups = tuple(groups)
        self.global_blocks = tuple(b for b in roles if roles[b].kind == "global_parity")
        self.fate: dict[int, bool] = {}

    def recoverable(self, mask: int) -> bool:
        """True iff the blocks left when the slots in *mask* fail (bit s set
        == slot s failed) determine every data block, kept in ``fate``.

        A miss is the planner's rank test, ``_eliminate``: the parity rows
        still live somewhere must have full rank over the data symbols lost
        on every slot.  Rows that miss them all are left out, so none is
        kept when no symbol is lost, and too few rows fail at once."""
        ok = self.fate.get(mask)
        if ok is None:
            lost = [i for slots, i in self.data_masks if slots & mask == slots]
            rows = [part for slots, row in self.parity_masks
                    if slots & ~mask and any(part := [row[i] for i in lost])]
            need = len(lost)
            ok = self.fate[mask] = len(rows) >= need and _eliminate(rows, need) == need
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
    import random  # imported here: only a replication or RAID+m put draws nodes

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


def memory_reader(blocks: Mapping[int, bytes]) -> Callable[[int], bytes]:
    """Block accessor over bytes already in memory and checked; a block not
    among them raises MissingBlockError, as a stripe reader does."""

    def reader(block_id: int) -> bytes:
        body = blocks.get(block_id)
        if body is None:
            raise MissingBlockError(f"no surviving copy of block {block_id}")
        return body

    return reader


def read_stripe(scheme: Scheme, reader, damage, rebuilt=lambda *_: None) -> Iterator[bytes]:
    """Yield a stripe's data blocks in order from *reader*, a block accessor
    as ``execute_plan`` takes.  A block it cannot serve is rebuilt by a
    degraded-read plan, its own replicas counted corrupt, and the other
    blocks that plan rebuilds are kept until their turn.  The plan's damage,
    (down slots, corrupt (block id, slot) pairs), is ``damage(False)``, a
    cheap guess, and then, if the plan meets another block the reader cannot
    serve, ``damage(True)``, the exact damage.  ``rebuilt(block id, plan,
    blocks)`` sees each executed plan and its blocks before they are used."""
    geo = _geometry(scheme)
    kept: dict[int, bytes] = {}
    for i in range(scheme.data_block_count):
        b = geo.data_block_of[i]
        try:
            body = reader(b)
        except (MissingBlockError, ChecksumMismatchError):
            if b not in kept:
                own = [(b, s) for s in geo.placements[b]]
                down, corrupt = damage(False)
                plan = plan_degraded_read(scheme, b, down, [*corrupt, *own])
                try:
                    blocks = execute_plan(plan, reader)
                except (MissingBlockError, ChecksumMismatchError):  # another block is bad too
                    down, corrupt = damage(True)
                    plan = plan_degraded_read(scheme, b, down, [*corrupt, *own])
                    blocks = execute_plan(plan, reader)
                rebuilt(b, plan, blocks)
                kept.update(blocks)
            body = kept.pop(b)
        yield body


def check_stripe(scheme: Scheme, data: Iterable, replicas: Callable) -> Iterator[bytes]:
    """Yield the stripe's data blocks *data* and check each replica that
    ``replicas(block id)`` gives against them, a data block's as it passes,
    and, after the last, each parity's against a fresh encode, one parity
    at a time; a replica that differs raises InconsistentStripeError."""
    geo = _geometry(scheme)

    def check(b: int, body) -> None:
        if any(r != body for r in replicas(b)):
            raise InconsistentStripeError(f"block {b} violates the stripe's parity relations")

    encoder = None
    for i, block in enumerate(data):
        check(geo.data_block_of[i], block)
        encoder = encoder or StripeEncoder(scheme, len(block))
        encoder.feed(i, block)
        yield block
    for b, parity in encoder.parities():
        check(b, parity)


def decode_stripe(
    scheme: Scheme,
    surviving: Mapping[int, Mapping[int, bytes]],
    pattern: Iterable[int] = (),
) -> list[bytes]:
    """Recover all data blocks from surviving node contents, *surviving*
    mapping canonical slot -> {block id -> bytes} and *pattern* the failed
    slots: ``read_stripe`` over a ``memory_reader`` of each block's first
    replica, every block left out counted corrupt, then ``check_stripe``
    against every replica in *surviving*."""
    geo = _geometry(scheme)
    failed = frozenset(pattern)
    copies: dict[int, list] = {}
    for slot, blocks in surviving.items():
        for b, body in blocks.items():
            if slot in failed or slot not in geo.placements.get(b, ()):
                raise ValueError(f"block {b} is not held on live slot {slot}")
            copies.setdefault(b, []).append(body)
    left_out = [(b, s) for b, slots in geo.placements.items() if b not in copies for s in slots]
    reader = memory_reader({b: bodies[0] for b, bodies in copies.items()})
    data = read_stripe(scheme, reader, lambda exact: (failed, left_out))
    return list(check_stripe(scheme, data, lambda b: copies.get(b, ())))


# ---------------------------------------------------------------------------
# Repair planning

READER_NODE = -1  # destination pseudo-node for degraded reads


class WholeCopy(_Record, frozen=True):
    block_id: int


class PartialParity(_Record, frozen=True):
    """GF-linear combination computed at the source node.

    ``terms`` holds (block id, coefficient) pairs; coefficient 1 on every
    term is a plain XOR partial.
    """

    terms: tuple[tuple[int, int], ...]


class Transfer(_Record, frozen=True):
    src: int
    dst: int
    payload: WholeCopy | PartialParity
    delivers: bool = False  # True: this copy re-materializes the block at dst


class Recovery(_Record, frozen=True):
    """A lost block expressed as a GF-linear combination of transfer payloads."""

    block_id: int
    terms: tuple[tuple[int, int], ...]  # (transfer index, coefficient)

    @property
    def ready_after(self) -> int:
        return max(i for i, _ in self.terms)


class RepairPlan(_Record, frozen=True):
    """Transfers, recoveries and their GF(2^8)-linear map: ``sources``, the
    blocks the accessor serves in first-need order, and ``returns``, each
    returned block's form (source block -> coefficient), None for a block
    that a delivering whole copy returns as the accessor serves it."""

    transfers: tuple[Transfer, ...]
    recoveries: tuple[Recovery, ...]
    sources: tuple[int, ...]
    returns: Mapping[int, Mapping[int, int] | None]

    @property
    def bandwidth_blocks(self) -> int:
        """Transfers between two nodes; a source read where it is used is none."""
        return sum(t.src != t.dst for t in self.transfers)


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


class _PlanBuilder:
    """Accumulates one plan's transfers and recoveries for a scheme and its
    damage: the slots *down* and the corrupt replicas on live slots *bad*,
    as (block id, slot) pairs, which ``_damage`` gives.  ``held``
    maps each block to the slots that hold it good, ascending, and ``lost``
    lists the blocks held nowhere, in block-id order; a lost block that the
    plan rebuilds is then held by the slot that rebuilt it alone.

    The lost data symbols are solved from the good parity rows, in block-id
    order, that ``_transform`` picks as pivots, so damage whose good blocks
    do not determine the data raises UnrecoverableError.  ``solves`` maps
    each lost data block to its pivot rows and their coefficients, one map
    per set of blocks that share a pivot row, which are solved together.

    Each payload and recovery is written as it is added as a form over the
    sources, a rebuilt block that a later transfer reads standing for its
    own form, so the plan carries the map that ``execute_plan`` runs."""

    def __init__(self, scheme: Scheme, down: frozenset[int], bad: frozenset[tuple[int, int]]):
        geo = self.geo = _geometry(scheme)
        self.down, self.bad = down, bad
        if any(s not in geo.placements.get(b, ()) for b, s in bad):
            raise ValueError(f"corrupt replicas {sorted(bad)} are not all placed")
        self.held = {b: tuple(s for s in slots if s not in down and (b, s) not in bad)
                     for b, slots in geo.placements.items()}
        self.lost = [b for b, slots in self.held.items() if not slots]
        unknown = [b for b in self.lost if geo.roles[b].kind == "data"]
        rows = [p for p, role in geo.roles.items() if role.kind != "data" and self.held[p]]
        rank, inverse = _transform(
            [[geo.rows[p][geo.roles[b].index] for b in unknown] for p in rows], len(unknown))
        if rank < len(unknown):
            raise UnrecoverableError(f"fatal for {scheme.name}: with slots {sorted(down)}"
                                     f" down, the good blocks do not determine the data")
        self.solves: list[dict[int, dict[int, int]]] = []
        for b, coefs in zip(unknown, inverse):
            solve = {b: {p: c for p, c in zip(rows, coefs) if c}}
            for other in [s for s in self.solves if _pivots(s) & solve[b].keys()]:
                self.solves.remove(other)
                solve.update(other)
            self.solves.append(solve)
        self.transfers: list[Transfer] = []
        self.recoveries: list[Recovery] = []
        self.forms: list[dict[int, int]] = []  # transfer -> its payload's form
        self.sources: dict[int, None] = {}  # blocks the accessor serves, in first-need order
        self.returns: dict[int, dict[int, int] | None] = {}

    def home(self, blocks) -> int:
        """The lowest live slot that hosts one of *blocks*, else the lowest slot that does."""
        slots = [s for b in blocks for s in self.geo.placements[b]]
        return min((s for s in slots if s not in self.down), default=min(slots))

    def form(self, block_id: int) -> dict[int, int]:
        """The block's form: the one it was rebuilt as, else itself as a source."""
        form = self.returns.get(block_id)
        if form is None:
            self.sources[block_id] = None
            form = {block_id: 1}
        return form

    def add(self, src, dst, payload, delivers=False) -> int:
        """Append a transfer and its payload's form; returns its index."""
        if isinstance(payload, WholeCopy):
            if delivers:
                self.returns.setdefault(payload.block_id, None)
            form = self.form(payload.block_id)
        else:
            form = _compose((self.form(b), c) for b, c in payload.terms)
        self.transfers.append(Transfer(src, dst, payload, delivers))
        self.forms.append(form)
        return len(self.forms) - 1

    def recover(self, block_id: int, terms, dst: int) -> None:
        """Rebuild the block at *dst* alone as *terms*, (transfer, coefficient) pairs."""
        self.recoveries.append(Recovery(block_id, terms))
        self.returns[block_id] = _compose((self.forms[i], c) for i, c in terms)
        self.held[block_id] = (dst,)

    def send(self, terms, dst: int) -> list[int]:
        """Send the sum of *terms*, (block id, coefficient) pairs, to *dst*
        as one partial parity per source slot, a lone block whole, and
        return their transfer indices.  The terms *dst* holds are read
        there, which is no transfer; the others come from the fewest slots
        that hold them (``_fewest``), each from the lowest of those."""
        masks = {b: sum(1 << s for s in self.held[b]) for b, _ in terms if dst not in self.held[b]}
        chosen = _fewest(masks.values())
        by_src: dict[int, list[tuple[int, int]]] = {}
        for b, c in terms:
            mask = masks[b] & chosen if b in masks else 0
            by_src.setdefault((mask & -mask).bit_length() - 1 if mask else dst, []).append((b, c))
        sent = []
        for src, part in sorted(by_src.items()):
            if part == [(part[0][0], 1)]:
                sent.append(self.add(src, dst, WholeCopy(part[0][0])))
            else:
                sent.append(self.add(src, dst, PartialParity(tuple(sorted(part)))))
        return sent

    def solve(self, solve: dict[int, dict[int, int]], dst: int) -> None:
        """Rebuild the lost data blocks of *solve* at *dst*.  Each pivot row
        less the known data it covers is one equation, sent on its own, and
        each block is its pivot rows' combination of the equations."""
        geo = self.geo
        sent = {}
        for p in sorted(_pivots(solve)):
            covered = [(geo.data_block_of[i], c) for i, c in enumerate(geo.rows[p]) if c]
            sent[p] = self.send([(p, 1), *((b, c) for b, c in covered if b not in self.lost)], dst)
        for b in sorted(solve):
            self.recover(b, tuple((idx, c) for p, c in solve[b].items() for idx in sent[p]), dst)

    def rebuild_parity(self, block_id: int, dst: int) -> None:
        """Rebuild the lost parity *block_id* at *dst* from its row over the
        data, a lost data block read where the plan rebuilt it."""
        row = self.geo.rows[block_id]
        sent = self.send([(self.geo.data_block_of[i], c) for i, c in enumerate(row) if c], dst)
        self.recover(block_id, tuple((idx, 1) for idx in sent), dst)

    def done(self) -> RepairPlan:
        recs = tuple(sorted(self.recoveries, key=lambda r: r.ready_after))
        return RepairPlan(tuple(self.transfers), recs, tuple(self.sources), self.returns)


def _pivots(solve: dict[int, dict[int, int]]) -> set[int]:
    return {p for coefs in solve.values() for p in coefs}


def _fewest(holders: Iterable[int]) -> int:
    """The fewest slots that hold every term, as a bit mask, given each
    term as the bit mask of the slots that hold it.  A term held once
    forces its slot; the terms left are covered one connected part at a
    time, by the first of the smallest sets of its slots in slot order."""
    holders = set(holders)
    chosen = 0
    for h in holders:
        if not h & h - 1:
            chosen |= h
    left = [h for h in holders if not h & chosen]
    while left:
        reach, last = left[0], 0
        while reach != last:
            last = reach
            for h in left:
                if h & reach:
                    reach |= h
        part = [h for h in left if h & reach]
        left = [h for h in left if not h & reach]
        slots = [1 << s for s in range(reach.bit_length()) if reach >> s & 1]
        chosen |= next(m for k in range(1, len(slots) + 1)
                       for m in map(sum, itertools.combinations(slots, k))
                       if all(h & m for h in part))
    return chosen


def plan_repair(
    scheme: Scheme, pattern: Iterable[int], corrupt: Iterable[tuple[int, int]] = ()
) -> RepairPlan:
    """Plan the transfers that restore every replica lost by the down slots
    *pattern* or *corrupt*, a set of (block id, slot) pairs; it refuses only
    damage whose good blocks do not determine the data, with
    ``UnrecoverableError``.

    Each replica on a down slot of a block with a good one is first copied
    whole from the block's lowest good host.  The blocks of each solve are
    then rebuilt together at their lowest live host, else their lowest
    host, every slot that holds terms of a pivot equation sending one
    partial parity of them; each lost parity is rebuilt at its own such
    host, from its row over the data.  Each rebuilt block is copied on to
    its other hosts, and a corrupt replica with a good twin is copied over
    last.  A polygon single thus moves n-1 whole copies and a double
    2(n-2) copies, n-2 partial parities and one copy on (3(n-2)+1 in all).

    A plan is made once per damage and kept, as a degraded-read plan is, in
    a bounded cache, and so is a refusal: each call on refused damage
    raises a new ``UnrecoverableError`` with the kept message.  Malformed
    damage is refused on every call.
    """
    plan = _repair_plan(scheme, *_damage(scheme, pattern, corrupt))
    if isinstance(plan, str):
        raise UnrecoverableError(plan)
    return plan


def _damage(scheme: Scheme, pattern, corrupt) -> tuple[frozenset, frozenset]:
    """The down slots and the corrupt pairs on live slots, as a plan's cache key."""
    down = frozenset(_iter_pattern(scheme, pattern))
    return down, frozenset((b, s) for b, s in corrupt if s not in down)


@lru_cache(maxsize=256)
def _repair_plan(scheme: Scheme, down: frozenset, bad: frozenset) -> RepairPlan | str:
    """The plan for the damage, or the message of its refusal."""
    try:
        builder = _PlanBuilder(scheme, down, bad)
    except UnrecoverableError as exc:
        return str(exc)
    geo, held = builder.geo, builder.held
    for b, slots in geo.placements.items():
        for s in slots:
            if held[b] and s in builder.down:
                builder.add(held[b][0], s, WholeCopy(b), delivers=True)
    for solve in builder.solves:
        builder.solve(solve, builder.home(solve))
    for b in builder.lost:
        if geo.roles[b].kind != "data":
            builder.rebuild_parity(b, builder.home([b]))
    for b in builder.lost:
        for s in geo.placements[b]:
            if s != held[b][0]:
                builder.add(held[b][0], s, WholeCopy(b), delivers=True)
    for b, s in sorted(builder.bad):
        if b not in builder.lost:
            builder.add(held[b][0], s, WholeCopy(b), delivers=True)
    return builder.done()


def plan_degraded_read(
    scheme: Scheme,
    block_id: int,
    down_nodes: Iterable[int],
    corrupt: Iterable[tuple[int, int]] = (),
) -> RepairPlan:
    """Plan the transfers that deliver one block with no good replica to a
    designated reader (pseudo-node ``READER_NODE``), given the down slots
    and the *corrupt* replicas as in ``plan_repair``.

    A data block is rebuilt with the rest of its solve, from the same
    transfers, as ``plan_repair`` rebuilds it; a parity from its row over
    the data, after the solves of the lost data blocks it covers."""
    return _read_plan(scheme, block_id, *_damage(scheme, down_nodes, corrupt))


@lru_cache(maxsize=256)
def _read_plan(scheme: Scheme, block_id: int, down: frozenset, bad: frozenset) -> RepairPlan:
    geo = _geometry(scheme)
    if block_id not in geo.placements:
        raise ValueError(f"unknown block id {block_id}")
    builder = _PlanBuilder(scheme, down, bad)
    if block_id not in builder.lost:
        raise BlockAvailableError(f"block {block_id} still has a good copy")
    covered = {geo.data_block_of[i] for i, c in enumerate(geo.rows[block_id]) if c}
    for solve in builder.solves:
        if covered & solve.keys():
            builder.solve(solve, READER_NODE)
    if geo.roles[block_id].kind != "data":
        builder.rebuild_parity(block_id, READER_NODE)
    return builder.done()


# ---------------------------------------------------------------------------
# Plan execution


def execute_plan(plan: RepairPlan, reader: Callable[[int], bytes]) -> dict[int, bytes]:
    """The blocks a plan returns, from a block accessor that serves its
    ``sources`` and may raise MissingBlockError or ChecksumMismatchError.
    Each source is read once, in order, and fed into one ``_Sums`` whose
    targets are the forms of the plan's ``returns``, so the scaled terms
    share bit-planes.  A source is dropped once fed unless a delivering
    whole copy returns it as is.  Each recovered block becomes bytes once,
    one at a time."""
    returns = plan.returns
    sums = _Sums({b: f.items() for b, f in returns.items() if f is not None})
    served: dict[int, bytes] = {}
    for b in plan.sources:
        data = reader(b)
        if sums.width is None:
            sums.width = len(data)
        elif len(data) != sums.width:
            raise ValueError("blocks differ in length")
        sums.feed(b, data)
        if b in returns and returns[b] is None:
            served[b] = data
        del data  # not held while the next source is read or the sums are taken
    return {
        b: served.pop(b) if f is None else sums.take(b).to_bytes(sums.width, "little")
        for b, f in returns.items()
    }
