"""What a storage scheme with inherent double replication is: its
parameters, where each block lives, and which failures it survives.

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

A failure pattern is recoverable when the GF(2^8) elimination ``_eliminate``
finds the surviving parity rows of full rank over the lost data symbols.
``codes`` moves the bytes (encoding, decoding, repair planning and plan
execution) and imports this module; this module imports no other polycode
module but ``gf256``, so the simulators and ``code info`` never load the
byte path.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import cached_property, lru_cache
from operator import attrgetter

from .gf256 import gf_inv, gf_mul, gf_pow

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction


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


def polygon_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in lexicographic order; block id == position."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


MAX_BLOCKS = 1 << 10  # a stripe's blocks, and a block's slots: each block has a row over the data
MAX_FATE_BITS = 20  # a fate table of a byte per mask up to this code length (1 MiB)


class _Fates(dict):
    """The fate table of a code too long for a byte per mask: a dict read
    as the ``bytearray`` is, an absent mask reading 0."""

    def __missing__(self, mask: int) -> int:
        return 0


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
    ``fate``             failure mask -> 0 not yet known, 1 recoverable or
                         2 fatal, filled by ``recoverable``: a ``bytearray``
                         of 2^L bytes when L <= ``MAX_FATE_BITS``, else a
                         ``_Fates`` dict; made at its first use
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

    @cached_property
    def fate(self) -> bytearray | _Fates:
        L = len(self.blocks_on)
        return bytearray(1 << L) if L <= MAX_FATE_BITS else _Fates()

    def recoverable(self, mask: int) -> bool:
        """True iff the blocks left when the slots in *mask* fail (bit s set
        == slot s failed, 0 <= mask < 2^L) determine every data block, kept
        in ``fate``.

        A miss is the planner's rank test, ``_eliminate``: the parity rows
        still live somewhere must have full rank over the data symbols lost
        on every slot.  Rows that miss them all are left out, so none is
        kept when no symbol is lost, and too few rows fail at once."""
        fate = self.fate
        f = fate[mask]
        if not f:
            lost = [i for slots, i in self.data_masks if slots & mask == slots]
            rows = [part for slots, row in self.parity_masks
                    if slots & ~mask and any(part := [row[i] for i in lost])]
            need = len(lost)
            f = fate[mask] = 1 if len(rows) >= need and _eliminate(rows, need) == need else 2
        return f == 1


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
# GF(2^8) elimination


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
    read from the geometry's fate table.  A negative mask, or one with a
    bit at or past the code length, is refused."""
    L = scheme.code_length
    if mask >> L:  # a bit at or past L, or a negative mask, whose shift is -1
        raise ValueError(f"mask {mask} outside code length {L}")
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
