"""File-backed striped block store with fault injection, fsck, and repair.

Tree layout::

    root/store.json             store config and the set of down nodes
    root/next_offset            the next free offset in the node files
    root/.lock                  taken by every mutating operation
    root/n<k>/                  one directory per simulated node
    root/<name>.manifest.json   one manifest per stored file
    n<k>/blocks.blk             every block node k holds, of every stripe

The codes keep several blocks of a stripe on one node, and a node keeps
every stripe it holds in one file.  A stripe's record in its manifest holds
its ``offset``: in each of its nodes' files, the node's blocks of the
stripe start there, in block-id order, ``block_size`` bytes each, with no
header.  A slot that holds fewer blocks than the scheme's longest run
leaves a hole after them.  Where each block goes follows from the scheme
alone, so the record holds two more things: its ``node_order``, the node
that plays each of the scheme's slots, and the CRC32 (IEEE polynomial) of
every block, by block id, as 8 hex characters.  The store works in slots
and reads the rest from ``codes._geometry``: a block's slots from
``placements``, the data blocks' order from ``data_block_of``, and a
replica's place in its run from the block's rank in ``blocks_on`` of its
slot, which lists a slot's blocks in ascending order.  A node id appears
only in a node file's name and in ``FsckReport``.  Stripes are numbered
from 0 within each file.  Every file takes the store's scheme and block
size: a handle reads them, and the geometry and run length that follow,
from ``store.json`` once, and a manifest that records another scheme or
block size is refused.  Killing a node wipes its directory, which forces
real repair traffic instead of replica re-registration.

``next_offset`` is the store's next free offset, 20 decimal digits and a
newline.  ``create`` writes it as 0, and ``put`` reads it under the lock
and writes it past each stripe's longest run before it writes a block of
the stripe, in place: it only grows and keeps its width, so a write that
stops partway leaves it at a value no smaller than before.  So a put
creates no file once every node holds its file, and a put that fails
leaves at most a range that no manifest names.  No node file is ever cut
short by the store.  ``repair`` mends a mark that is missing, malformed or
behind the furthest run a manifest names; it never lowers a valid one.
``fsck`` reports such a mark.

A node file that is not there is the only sign of a lost slot: ``fsck``
reports it as missing, once for all the stripes that use it, so its
``missing`` count is the number of node files the killed nodes held; a
replica that fails its CRC, or that a short file or a hole cuts off, is
corrupt.  A stripe is fatal exactly when ``codes.plan_repair`` refuses its
missing slots and corrupt replicas, so ``fsck`` and ``repair`` give one
verdict.

Memory: no operation holds a file.  ``put`` holds a data block and the
parity sums, ``read`` a block plus what a degraded-read plan keeps (``get``
builds its ``bytearray`` from it, and the CLI streams it to a temp file),
``repair`` one stripe, and ``fsck`` one node's run of a stripe.

Three helpers, ``_read_file``, ``_write_file`` and ``_remove_files``, are the
only code that opens or removes a block file, a range at a time; the first
two open a file at its first use and keep it open until they are done, so
a command opens a node file at most once to read it and once to write it.
They serve ``code encode`` and ``code decode`` too, whose stripe is a file
per block, ``b<id>.blk``, written by the same ``_write_stripe`` and read by
the same ``_StripeReader`` as a node file's runs.

This module owns every metadata file: ``store.json``, ``next_offset``, the
manifests and ``stripe.json`` (``write_stripe_dir``, ``read_stripe_dir``).
Each field is refused by name, ``<file> is malformed``, where it is parsed;
an integer, and each entry of an integer list, is an ``int`` in its stated
range and never a ``bool`` (``_is_int``).  Every byte past a file's end is
zero padding, so a read refuses a recorded size that cuts off a nonzero
byte (``head``).  ``_write_json`` writes to a temp
file renamed over its target, compact (so ``json`` uses its C encoder) but
``stripe.json`` indented.  The commit points are ``store.json`` for
``create``, the manifest for ``put``, and the last ``store.json`` write for
``repair``, which marks nodes up only after their blocks are written.  A
write that fails earlier leaves at most bytes that no manifest names, or a
replica that the next repair rewrites.  Nothing is fsynced.

Concurrency: put, kill, revive and repair take an exclusive ``flock`` on
``root/.lock``, which holds across handles, threads and processes, and read
the down set from ``store.json`` inside it; no handle keeps a copy.  That
set decides placement and node status only.  Reads (``read``, ``get`` and
``fsck``) take no lock and consult no down set: they see the node files as
they are.  This is sound because ``kill_node`` removes a node's file
before it marks the node down, and ``repair`` writes it before it marks
the node up; a down node that holds a file, after a repair that stopped,
serves the replicas whose CRCs pass.
"""

from __future__ import annotations

import fcntl
import json
import os
import string
import sys
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from functools import cache, cached_property
from pathlib import Path

from . import codes
from .codes import (
    ChecksumMismatchError,
    MissingBlockError,
    Scheme,
    UnrecoverableError,
    _Record,
    parse_scheme,
)

MAX_BLOCK_SIZE = 1 << 28  # bytes (256 MiB): a larger block size is refused wherever it is read
MAX_NODES = 512  # store init makes a directory per node; a read holds a descriptor per node file
MAX_OFFSET = 1 << 62  # bytes: past it a run's file offsets would overflow the OS's
MARK = "next_offset"  # in the root: the next free offset, MARK_WIDTH digits and a newline
MARK_WIDTH = 20


class StoreError(Exception):
    pass


class FatalStripeError(StoreError):
    """A stripe has lost more than the scheme can recover."""


def _log(msg: str, *args) -> None:
    """Log *msg* % *args* at INFO as ``polycode.blockstore``.  Until
    something has imported ``logging`` no handler can exist to take the
    record, so a command that has not pays neither the import nor the call."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(msg, *args)


class NodeState(_Record):
    node_id: int
    status: str  # "up" | "down"
    path: Path


class StripeRecord(_Record):
    offset: int  # where the stripe's run starts in each of its nodes' files
    node_order: list[int]  # node_order[s] is the node that plays slot s
    crc32: list[str]  # by block id

    def __init__(self, offset: int, node_order: list[int], crc32: list[str]):
        self.offset, self.node_order, self.crc32 = offset, node_order, crc32


class StoreManifest(_Record):
    name: str
    size: int
    scheme: str
    block_size: int
    stripes: list[StripeRecord]

    def __init__(self, name: str, size: int, scheme: str, block_size: int,
                 stripes: list[StripeRecord]):
        self.name, self.size, self.scheme = name, size, scheme
        self.block_size, self.stripes = block_size, stripes

    @property
    def stripe_count(self) -> int:
        return len(self.stripes)

    def to_dict(self) -> dict:
        return {"file": self.name, "size": self.size, "scheme": self.scheme,
                "block_size": self.block_size, "stripe_count": self.stripe_count,
                "stripes": [{"offset": s.offset, "node_order": s.node_order, "crc32": s.crc32}
                            for s in self.stripes]}

    @classmethod
    def from_dict(cls, d: dict, source: str = "manifest",
                  store: BlockStore | None = None) -> "StoreManifest":
        """The manifest *d*, read from *source*.  Given the *store* that
        holds it, its scheme and block size must be the store's, and a
        stripe record that names a node outside the store is refused too;
        else its scheme is its own."""
        _require(d, source, file=str, scheme=str, stripes=list)
        block_size = _int_field(d, "block_size", source, 1, MAX_BLOCK_SIZE)
        if store is None:
            scheme, nodes = _scheme_field(d, source), None
        else:
            scheme, nodes = store.scheme, store.node_count
            for key, value in (("scheme", scheme.name), ("block_size", store.block_size)):
                if d[key] != value:
                    raise StoreError(f"{source} is malformed: its {key} {d[key]!r}"
                                     f" is not the store's, {value!r}")
        stripes = [_stripe_record(d, k, s, scheme, source, nodes)
                   for k, s in enumerate(d["stripes"])]
        size = _int_field(d, "size", source, 0,  # what its stripes' data blocks hold
                          len(stripes) * scheme.data_block_count * block_size)
        return cls(d["file"], size, d["scheme"], block_size, stripes)


def _stripe_record(d: dict, k: int, stripe: dict, scheme: Scheme, source: str,
                   nodes: int | None) -> StripeRecord:
    """A manifest's stripe record *k*, refused unless it has an offset, a
    node per slot and a CRC per block, and its nodes are distinct nodes of
    the store (two slots on one node would write over each other's run).
    A record of the per-stripe layout, with an index for its offset, is
    refused by name."""
    if isinstance(stripe, dict) and "index" in stripe and "offset" not in stripe:
        raise StoreError(f"{source} is in the per-stripe layout (n<k>/<name>.s<i>.blk),"
                         f" which this store does not read")
    _require(stripe, f"{d['file']} stripe record", node_order=list)
    order, crcs, offset = stripe["node_order"], stripe.get("crc32"), stripe.get("offset")
    if (len(order) != scheme.code_length or not isinstance(crcs, list)
            or len(crcs) != scheme.block_count):
        raise StoreError(f"{d['file']} stripe {k} disagrees with the {scheme.name} layout")
    if not _is_int(offset, 0, MAX_OFFSET):
        raise StoreError(f"{source} is malformed: stripe {k} has an offset that is not"
                         f" an integer in 0..{MAX_OFFSET}")
    if not _is_node_list(order, nodes):
        raise StoreError(f"{source} is malformed: stripe {k} node_order {order}"
                         f" repeats a node or names one outside the store")
    if not all(map(is_crc, crcs)):
        raise StoreError(f"{source} is malformed: stripe {k} has a crc32"
                         f" that is not 8 hex characters")
    return StripeRecord(offset, list(order), [c.lower() for c in crcs])


class FsckReport(_Record):
    # missing node files by node id, ascending; corrupt replicas as
    # (file, stripe, block, node)
    missing: list[int]
    corrupt: list[tuple[str, int, int, int]]
    fatal_stripes: list[tuple[str, int]]
    mark: str  # what is wrong with next_offset, if anything

    def __init__(self):
        self.missing, self.corrupt, self.fatal_stripes, self.mark = [], [], [], ""

    @property
    def is_clean(self) -> bool:
        return not (self.missing or self.corrupt or self.fatal_stripes or self.mark)


class RepairResult(_Record):
    plans_executed: int
    bandwidth_blocks: int


def _crc(data: bytes) -> str:
    return f"{zlib.crc32(data):08x}"


_HEX = frozenset(string.hexdigits)


def is_crc(value) -> bool:
    """True for a recorded CRC32: 8 hex characters, which ``_crc`` gives in lower case."""
    return isinstance(value, str) and len(value) == 8 and _HEX.issuperset(value)


def _read_json(path: str) -> dict | None:
    """The JSON file's value, or None when the file does not exist.
    Unbuffered: the file is read whole, so a buffer would only add a copy."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return json.loads(fh.readall())
    except (FileNotFoundError, NotADirectoryError):
        return None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise StoreError(f"{path} is malformed: it is not JSON: {exc}") from None


_UNBOUNDED = float("inf")


def _is_int(value, lo=-_UNBOUNDED, hi=_UNBOUNDED) -> bool:
    """The one integer rule of every metadata file: an int in lo..hi, and
    not a bool, which Python counts as an int."""
    return type(value) is int and lo <= value <= hi


def _int_field(d: dict, key: str, source: str, lo=-_UNBOUNDED, hi=_UNBOUNDED) -> int:
    """``d[key]``, read from *source*, refused by name unless ``_is_int``."""
    value = d.get(key)
    if not _is_int(value, lo, hi):
        what = f"is outside {lo}..{hi}" if _is_int(value) else "is not an integer"
        raise StoreError(f"{source} is malformed: its {key} {what}")
    return value


def _is_node_list(order: list, nodes: int | None) -> bool:
    """True for distinct node ids in 0..nodes-1 (any when *nodes* is None)."""
    hi = _UNBOUNDED if nodes is None else nodes - 1
    return all(_is_int(n, 0, hi) for n in order) and len(set(order)) == len(order)


def _scheme_field(d: dict, source: str) -> Scheme:
    """The scheme that ``d["scheme"]``, read from *source*, names, refused by name."""
    try:
        return parse_scheme(d["scheme"])
    except ValueError:
        raise StoreError(f"{source} is malformed: its scheme {d['scheme']!r}"
                         f" is not a valid scheme") from None


def _require(obj, source: str, **kinds) -> None:
    """Refuse *obj*, read from *source*, unless it maps each key of *kinds* to its type."""
    if not (isinstance(obj, dict) and all(isinstance(obj.get(k), t) for k, t in kinds.items())):
        raise StoreError(f"{source} is malformed: it needs {', '.join(kinds)}")


def _write_json(path: Path | str, obj: dict, **style) -> None:
    """Write *obj* to a temp file and rename it over *path*, compact unless
    *style* gives ``json.dumps`` other keywords."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(obj, **(style or {"separators": (",", ":")})) + "\n")
    os.replace(tmp, path)


def _valid_name(name: str) -> bool:
    """A stored file's name: its manifest is root/<name>.manifest.json, so
    the name must be one file name, in the root and no other directory."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def fill(src, view: memoryview) -> int:
    """Read from *src* into *view* until it is full or the input ends;
    returns the count read."""
    n = 0
    while n < len(view):
        got = src.readinto(view[n:])
        if not got:
            break
        n += got
    return n


def head(blocks, size: int, source: str, key: str) -> Iterator[bytes | memoryview]:
    """The first *size* bytes of the bytes-like *blocks*, a block at a time:
    the block that reaches *size* cut short, and those wholly past it read
    to the end but left out.  Every byte past *size* is padding, which is
    zero, so a nonzero one refuses *size*, the *key* of *source*, by name."""
    left = size
    for body in blocks:
        if len(body) > left:
            if bytes(body).count(0, left) != len(body) - left:
                raise StoreError(f"{source} is malformed: its {key} {size}"
                                 f" cuts off bytes that are not zero")
            body = memoryview(body)[:left]
        if body:
            left -= len(body)
            yield body


def _node_file(node: int) -> str:
    """The root-relative name of *node*'s block file."""
    return f"n{node}/blocks.blk"


def _node_places(geo, fnames: list[str], size: int,
                 offset: int) -> dict[int, list[tuple[str, int]]]:
    """Each block's replicas, (file, offset) in slot order, slot s being
    ``fnames[s]`` and its run starting at *offset*."""
    return {b: [(fnames[s], offset + geo.blocks_on[s].index(b) * size) for s in slots]
            for b, slots in geo.placements.items()}


def _mark(offset: int) -> bytes:
    """``next_offset``'s bytes for *offset*."""
    return b"%0*d\n" % (MARK_WIDTH, offset)


# -- block files: *fname* is a block file's name relative to *root* --------


@contextmanager
def _read_file(root: str):
    """Yield read(fname, offset, size, buffer=None), which reads *size*
    bytes at *offset* of the file, or returns None when it does not
    exist.  Each file is opened at its first read, or found missing
    then, and closed on the way out, so the reads see each file as it
    was when first read.  A read comes back as new bytes or, given
    *buffer*, as a view of its start; a read past the file's end comes
    back short."""
    fds: dict[str, int | None] = {}

    def read(fname: str, offset: int, size: int, buffer: bytearray | None = None):
        if fname not in fds:
            try:
                fds[fname] = os.open(f"{root}/{fname}", os.O_RDONLY)
            except (FileNotFoundError, NotADirectoryError):
                fds[fname] = None
        fd = fds[fname]
        if fd is None:
            return None
        try:
            if buffer is None:
                return os.pread(fd, size, offset)
            return memoryview(buffer)[: os.preadv(fd, [memoryview(buffer)[:size]], offset)]
        except OSError as exc:  # as a directory in a block file's place gives
            raise type(exc)(exc.errno, exc.strerror, f"{root}/{fname}") from None

    try:
        yield read
    finally:
        for fd in fds.values():
            if fd is not None:
                os.close(fd)


@contextmanager
def _write_file(root: str, whole: bool):
    """Yield write(fname, offset, body), which writes *body* at *offset*
    of the file.  Each file is opened at its first write, created when it
    does not exist and made empty first when *whole*, and closed on the
    way out; a file written in place keeps every byte it is not given."""
    flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if whole else 0)
    fds: dict[str, int] = {}

    def write(fname: str, offset: int, body) -> None:
        fd = fds.get(fname)
        if fd is None:
            fd = fds[fname] = os.open(f"{root}/{fname}", flags, 0o666)
        view = memoryview(body)
        while view:
            n = os.pwrite(fd, view, offset)
            view, offset = view[n:], offset + n

    try:
        yield write
    finally:
        for fd in fds.values():
            os.close(fd)


def _write_stripe(write, scheme: Scheme, src, view, n: int, places) -> tuple[list, int]:
    """Encode a stripe read from *src* through *view*, a data block's buffer
    that holds the stripe's first *n* bytes already, and write block b
    through *write*, one of ``_write_file``'s, to each (file, offset) of
    ``places[b]``: each data block as it is read, padded with zeros at the
    input's end, and each parity as it is made.  Returns the CRCs by block
    id and the count of input bytes taken."""
    geo = codes._geometry(scheme)
    size, taken = len(view), 0
    crcs, encoder = [""] * scheme.block_count, codes.StripeEncoder(scheme, size)

    def place(b: int, body) -> None:
        for fname, offset in places[b]:
            write(fname, offset, body)
        crcs[b] = _crc(body)

    for i in range(scheme.data_block_count):
        if i:
            n = fill(src, view)
        if n < size:  # the input's end: pad the stripe with zeros
            view[n:] = bytes(size - n)
        taken += n
        encoder.feed(i, view)
        place(geo.data_block_of[i], view)
    for b, body in encoder.parities():
        place(b, body)
    return crcs, taken


class _StripeReader:
    """The block accessor ``codes.read_stripe`` takes, over a stripe's
    replicas read through *read*, one of ``_read_file``'s: ``places[b]``
    lists block b's as (file, offset) in slot order, and ``crcs[b]`` is its
    CRC.  A replica is read as *span* bytes and is good when they are *size*
    bytes that pass the CRC, so a span past *size* finds a longer file bad."""

    def __init__(self, read, places, crcs: list[str], size: int, span: int):
        self.read, self.places, self.crcs, self.size, self.span = read, places, crcs, size, span

    def __call__(self, block_id: int) -> bytes:
        """The block's first good replica.  Raises ChecksumMismatchError
        when only corrupt ones remain, MissingBlockError when none is left."""
        corrupt = None
        for fname, offset in self.places[block_id]:
            body = self.read(fname, offset, self.span)
            if body is None:
                continue
            if len(body) == self.size and _crc(body) == self.crcs[block_id]:
                return body
            corrupt = fname
        if corrupt is not None:
            raise ChecksumMismatchError(f"block {block_id} in {corrupt} failed its CRC check")
        raise MissingBlockError(f"no live replica of block {block_id}")

    def good(self, block_id: int) -> bytes | None:
        """The block's first good replica, or None when it has none."""
        try:
            return self(block_id)
        except (MissingBlockError, ChecksumMismatchError):
            return None


def _check_rebuilt(blocks: dict[int, bytes], crcs: list[str]) -> None:
    """Refuse a block a plan rebuilt that fails its recorded CRC."""
    for b, body in blocks.items():
        if _crc(body) != crcs[b]:
            raise ChecksumMismatchError(f"rebuilt block {b} failed its CRC check")


# -- stripe directories: code encode's one stripe, a file per block ---------


def write_stripe_dir(directory: str, scheme: Scheme, src, block_size: int) -> int:
    """Encode *src*, one stripe at most, into *directory* as ``put`` writes
    a stripe, block b in ``b<id>.blk``, and describe it in ``stripe.json``.
    Returns the byte count encoded."""
    geo = codes._geometry(scheme)
    Path(directory).mkdir(parents=True, exist_ok=True)
    view = memoryview(bytearray(block_size))
    with _write_file(directory, whole=True) as write:
        crcs, size = _write_stripe(write, scheme, src, view, fill(src, view),
                                   {b: [(f"b{b}.blk", 0)] for b in geo.placements})
    order = codes.build_layout(scheme, range(scheme.code_length), 0)
    entries = {str(b): {"file": f"b{b}.blk", "role": geo.roles[b].as_string(),
                        "nodes": [order[s] for s in slots], "crc32": crcs[b]}
               for b, slots in geo.placements.items()}
    meta = {"scheme": scheme.name, "block_size": block_size, "original_size": size,
            "blocks": entries}
    _write_json(f"{directory}/stripe.json", meta, indent=2, sort_keys=True)
    return size


def read_stripe_dir(directory: str, killed: list[int]) -> Iterator[bytes | memoryview]:
    """The bytes ``write_stripe_dir`` encoded into *directory*, a data
    block at a time, with the nodes in *killed* lost; ``stripe.json`` is
    checked before anything is read.  A block's file, its one replica
    unless its slots are all killed, is lost when it has another length; a
    lost block is rebuilt by a degraded-read plan, and every replica left
    is checked against the data.  Each block file is opened once."""
    path = f"{directory}/stripe.json"
    meta = _read_json(path)
    if meta is None:
        raise StoreError(f"{path} is missing")
    _require(meta, path, scheme=str, blocks=dict)
    block_size = _int_field(meta, "block_size", path, 1, MAX_BLOCK_SIZE)
    scheme = _scheme_field(meta, path)
    size = _int_field(meta, "original_size", path, 0, scheme.data_block_count * block_size)
    geo = codes._geometry(scheme)
    entries = [meta["blocks"].get(str(b)) for b in range(scheme.block_count)]
    order: dict[int, int] = {}  # slot -> the node that plays it, from each block's hosts
    if len(meta["blocks"]) != len(entries) or not all(  # one entry per block, in *directory*
            isinstance(info, dict) and isinstance(info.get("file"), str)
            and _valid_name(info["file"]) and is_crc(info.get("crc32"))
            and isinstance(info.get("nodes"), list) and len(info["nodes"]) == len(geo.placements[b])
            and all(_is_int(n) and order.setdefault(s, n) == n
                    for n, s in zip(info["nodes"], geo.placements[b]))
            for b, info in enumerate(entries)):
        raise StoreError(f"{path} is malformed")
    nodes = [order.get(s) for s in range(scheme.code_length)]
    if not _is_node_list(nodes, None):
        raise StoreError(f"{path} is malformed")
    for node in killed:
        if node not in nodes:
            raise StoreError(f"node {node} holds no block of the stripe")
    down = {s for s, node in enumerate(nodes) if node in killed}
    places = {b: [] if set(slots) <= down else [(entries[b]["file"], 0)]
              for b, slots in geo.placements.items()}
    crcs = [info["crc32"].lower() for info in entries]

    def blocks() -> Iterator[bytes]:
        with _read_file(directory) as read:
            replicas = _StripeReader(read, places, crcs, block_size, block_size + 1)

            @cache
            def damage(exact: bool):
                return down, [(b, s) for b, slots in geo.placements.items()
                              if exact and replicas.good(b) is None for s in slots]

            def others(b: int) -> tuple:  # a served data block is its file
                body = None if geo.roles[b].kind == "data" else replicas.good(b)
                return () if body is None else (body,)

            data = codes.read_stripe(scheme, replicas, damage,
                                     lambda b, plan, bodies: _check_rebuilt(bodies, crcs))
            yield from codes.check_stripe(scheme, data, others)

    return head(blocks(), size, path, "original_size")


class BlockStore:
    """A directory-per-node block store for one coding scheme."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._root = str(self.root)
        cfg = self._read_config()
        self.scheme: Scheme = _scheme_field(cfg, f"{self._root}/store.json")
        self.node_count: int = cfg["nodes"]
        self.block_size: int = cfg["block_size"]
        self.seed: int = cfg["seed"]
        self.degraded_transfers = 0  # summed over this handle's degraded reads

    # the scheme's geometry and the bytes of a stripe's longest run in one
    # node file, made at their first use: kill and revive need neither
    _geo = cached_property(lambda self: codes._geometry(self.scheme))
    _run = cached_property(
        lambda self: self.block_size * max(map(len, self._geo.blocks_on.values())))

    @classmethod
    def create(
        cls, root: str | Path, scheme: Scheme, nodes: int, block_size: int, seed: int = 0
    ) -> "BlockStore":
        if not 0 < block_size <= MAX_BLOCK_SIZE:
            raise StoreError(f"block_size {block_size} is outside 1..{MAX_BLOCK_SIZE}")
        if nodes < scheme.code_length:
            raise StoreError(
                f"need at least {scheme.code_length} nodes for {scheme.name}, got {nodes}"
            )
        if nodes > MAX_NODES:
            raise StoreError(f"{nodes} nodes is more than the {MAX_NODES} a store can have")
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / "store.json").exists():
            raise StoreError(f"store already exists at {root}")
        # store.json is the commit point: a crashed create leaves node
        # directories and a mark that the next create reuses
        for i in range(nodes):
            (root / f"n{i}").mkdir(exist_ok=True)
        with _write_file(str(root), whole=True) as write:
            write(MARK, 0, _mark(0))
        cfg = {"scheme": scheme.name, "nodes": nodes,
               "block_size": block_size, "seed": seed, "down": []}
        _write_json(root / "store.json", cfg)
        return cls(root)

    # -- bookkeeping --------------------------------------------------------

    def _read_config(self) -> dict:
        path = f"{self._root}/store.json"
        cfg = _read_json(path)
        if cfg is None:
            raise StoreError(f"no store at {self.root}")
        _require(cfg, path, scheme=str, down=list)
        nodes = _int_field(cfg, "nodes", path, 1)
        _int_field(cfg, "block_size", path, 1, MAX_BLOCK_SIZE)
        _int_field(cfg, "seed", path)
        if not all(_is_int(n, 0, nodes - 1) for n in cfg["down"]):
            raise StoreError(f"{path} is malformed: its down list holds a value"
                             f" that is not a node of the store")
        return cfg

    def _save_config(self, down: set[int]) -> None:
        cfg = {"scheme": self.scheme.name, "nodes": self.node_count,
               "block_size": self.block_size, "seed": self.seed, "down": sorted(down)}
        _write_json(self.root / "store.json", cfg)

    @contextmanager
    def _locked(self):
        """Hold the store's lock and yield the down set as store.json has it.
        The lock is released when its file is closed."""
        with open(f"{self._root}/.lock", "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield set(self._read_config()["down"])

    def _mark_fault(self, end: int) -> str:
        """What is wrong with ``next_offset`` given *end*, the end of the
        furthest run a manifest names: '' when it is a valid mark at or
        past *end*."""
        try:
            mark = self._next_offset()
        except StoreError as exc:  # missing or malformed
            return str(exc)
        return "" if mark >= end else f"{self._root}/{MARK} is behind the runs, which end at {end}"

    def _next_offset(self) -> int:
        """The next free offset, as ``next_offset`` has it now."""
        path = f"{self._root}/{MARK}"
        with _read_file(self._root) as read:
            text = read(MARK, 0, MARK_WIDTH + 2)
        if text is None:
            raise StoreError(f"{path} is missing")
        if (len(text) != MARK_WIDTH + 1 or not text[:-1].isdigit() or text[-1:] != b"\n"
                or int(text) > MAX_OFFSET):
            raise StoreError(f"{path} is malformed: it needs {MARK_WIDTH} digits"
                             f" of an offset in 0..{MAX_OFFSET} and a newline")
        return int(text)

    def node_dir(self, node_id: int) -> Path:
        return self.root / f"n{node_id}"

    def nodes(self) -> list[NodeState]:
        """Each node's state as store.json has it now."""
        down = self._read_config()["down"]
        return [NodeState(i, "down" if i in down else "up", self.node_dir(i))
                for i in range(self.node_count)]

    def node_state(self, node_id: int) -> NodeState:
        """The node's state as store.json has it now, read without the others'."""
        if not 0 <= node_id < self.node_count:
            raise StoreError(f"unknown node {node_id}")
        down = self._read_config()["down"]
        return NodeState(node_id, "down" if node_id in down else "up", self.node_dir(node_id))

    def _manifest_path(self, name: str) -> Path:
        return self.root / f"{name}.manifest.json"

    def load_manifest(self, name: str) -> StoreManifest:
        d = _read_json(f"{self._root}/{name}.manifest.json") if _valid_name(name) else None
        if d is None:
            raise StoreError(f"no such stored file: {name}")
        return StoreManifest.from_dict(d, f"{self._root}/{name}.manifest.json", self)

    def manifests(self) -> list[StoreManifest]:
        with os.scandir(self._root) as entries:
            paths = sorted(e.path for e in entries if e.name.endswith(".manifest.json"))
        return [StoreManifest.from_dict(_read_json(path), path, self)
                for path in paths]

    # -- write path ---------------------------------------------------------

    def put(self, path: str | Path, name: str | None = None) -> StoreManifest:
        """Stripe, encode and place a file; persists and returns its manifest.

        Each stripe goes through ``_write_stripe`` at the next free offset,
        and ``next_offset`` is moved past its longest run before any of its
        blocks is written; a node file is created only when the node holds
        none yet.  The input may be any readable file, a pipe included; it
        is read to its end.  The file takes the store's scheme and block
        size, and the manifest's rename commits it.
        """
        name = Path(path).name if name is None else name
        if not _valid_name(name):
            raise StoreError(f"invalid file name: {name!r}")
        if self.node_count > MAX_NODES:  # before put lists the nodes
            raise StoreError(f"{self._root}/store.json is malformed: its nodes"
                             f" {self.node_count} is more than the {MAX_NODES} a store can have")
        scheme, block_size, geo, run = self.scheme, self.block_size, self._geo, self._run
        with self._locked() as down:
            if self._manifest_path(name).exists():
                raise StoreError(f"{name} is already stored")
            pool = [i for i in range(self.node_count) if i not in down]
            if len(pool) < scheme.code_length:
                raise StoreError("insufficient up nodes")
            offset = self._next_offset()
            view = memoryview(bytearray(block_size))
            size = 0
            stripes: list[StripeRecord] = []
            with open(path, "rb", buffering=0) as src, \
                    _write_file(self._root, whole=False) as write:
                while n := fill(src, view):
                    k = len(stripes)
                    layout_seed = zlib.crc32(f"{self.seed}:{name}:{k}".encode())
                    order = codes.build_layout(scheme, pool, layout_seed)
                    write(MARK, 0, _mark(offset + run))  # claimed before a block is written
                    fnames = [_node_file(node) for node in order]
                    crcs, taken = _write_stripe(write, scheme, src, view, n,
                                                _node_places(geo, fnames, block_size, offset))
                    size += taken
                    stripes.append(StripeRecord(offset, list(order), crcs))
                    offset += run
            manifest = StoreManifest(name, size, scheme.name, block_size, stripes)
            _write_json(self._manifest_path(name), manifest.to_dict())
            return manifest

    # -- read path ----------------------------------------------------------

    def _scan(self, stripe: StripeRecord, keep: bool, read):
        """Read each node's run of the stripe through *read*, one of
        ``_read_file``'s, into one buffer, and check each block's slice.
        Returns (good, corrupt, missing): the ids of the blocks with a good
        replica, each corrupt replica (one a short file cuts off too) as
        (block id, slot), and the slots whose file is missing, in node
        order.  With *keep*, each good block id maps to a copy of its first
        good replica (good replicas pass the same CRC); else to None."""
        size, order, geo = self.block_size, stripe.node_order, self._geo
        buffer = bytearray(self._run)
        good, corrupt, missing = {}, [], []
        for slot in sorted(range(len(order)), key=order.__getitem__):
            ids = geo.blocks_on[slot]
            body = read(_node_file(order[slot]), stripe.offset, len(ids) * size, buffer)
            if body is None:
                missing.append(slot)
                continue
            for rank, block_id in enumerate(ids):
                block = body[rank * size : (rank + 1) * size]
                if len(block) == size and _crc(block) == stripe.crc32[block_id]:
                    if good.get(block_id) is None:
                        good[block_id] = bytes(block) if keep else None
                else:
                    corrupt.append((block_id, slot))
        return good, corrupt, missing

    def read(self, name: str) -> Iterator[bytes | memoryview]:
        """The stored file's bytes in order, one data block at a time, cut
        to the file's size (blocks past it are still read and checked).  The
        manifest is loaded here, so a missing file raises before anything is
        read.  Each stripe is served by ``codes.read_stripe`` through a
        ``_StripeReader``.  A block with no good replica is rebuilt by a
        degraded-read plan whose damage is first the slots whose node file
        is not there, and then, when the plan meets another block with no
        good replica, what one scan of the stripe finds.  Each executed
        plan's bandwidth is logged and added to ``degraded_transfers``, and
        each block it rebuilds must pass its CRC."""
        return self._read_blocks(self.load_manifest(name))

    def _read_blocks(self, manifest: StoreManifest) -> Iterator[bytes | memoryview]:
        scheme, size, geo = self.scheme, self.block_size, self._geo

        def blocks() -> Iterator[bytes]:
            with _read_file(self._root) as read:
                for k, stripe in enumerate(manifest.stripes):
                    fnames = [_node_file(n) for n in stripe.node_order]
                    replicas = _StripeReader(read, _node_places(geo, fnames, size, stripe.offset),
                                             stripe.crc32, size, size)

                    @cache
                    def damage(exact: bool):
                        if exact:
                            _, corrupt, missing = self._scan(stripe, False, read)
                            return missing, corrupt
                        return [s for s, f in enumerate(fnames) if read(f, 0, 0) is None], ()

                    def rebuilt(block_id: int, plan, bodies: dict[int, bytes]) -> None:
                        self.degraded_transfers += plan.bandwidth_blocks
                        _log("degraded read: %s stripe %d block %d via %d transfers",
                             manifest.name, k, block_id, plan.bandwidth_blocks)
                        _check_rebuilt(bodies, stripe.crc32)

                    yield from codes.read_stripe(scheme, replicas, damage, rebuilt)

        return head(blocks(), manifest.size, self._manifest_path(manifest.name), "size")

    def get(self, name: str) -> bytearray:
        """Reassemble a stored file from ``read``."""
        manifest = self.load_manifest(name)
        # sized up front: growing it block by block reallocates and can leave
        # the outgrown buffers resident
        out = bytearray(manifest.size)
        pos = 0
        for body in self._read_blocks(manifest):
            out[pos : pos + len(body)] = body
            pos += len(body)
        return out  # as is: bytes(out) would fault in as many fresh pages again

    # -- fault injection ----------------------------------------------------

    def _remove_files(self, node_id: int) -> None:
        """Remove every block file on the node, named by a manifest or not."""
        try:
            entries = os.scandir(f"{self._root}/n{node_id}")
        except FileNotFoundError:
            return
        with entries:
            for entry in entries:
                if entry.name.endswith(".blk"):
                    os.unlink(entry.path)

    def kill_node(self, node_id: int) -> NodeState:
        """Mark a node down and destroy its contents (idempotent)."""
        self.node_state(node_id)
        with self._locked() as down:
            self._remove_files(node_id)
            self._save_config(down | {node_id})
        return self.node_state(node_id)

    def revive_node(self, node_id: int) -> NodeState:
        """Bring a node back up, empty; its blocks need repair."""
        self.node_state(node_id)
        with self._locked() as down:
            self._save_config(down - {node_id})
        return self.node_state(node_id)

    # -- scrub and repair ---------------------------------------------------

    def fsck(self) -> FsckReport:
        """Read-only scan: missing node files, each once, replicas that
        fail their CRC or that a short file cuts off, fatal stripes, whose
        damage ``codes.plan_repair`` refuses, as in ``repair``, and a
        ``next_offset`` that ``repair`` would mend.  The mark is read after
        the manifests, and a put moves it before it commits one, so a put
        that runs beside the scan does not make it look behind."""
        report, missing_nodes, end = FsckReport(), set(), 0
        with _read_file(self._root) as read:
            for manifest in self.manifests():
                for k, stripe in enumerate(manifest.stripes):
                    end = max(end, stripe.offset + self._run)
                    _, corrupt, missing = self._scan(stripe, False, read)
                    order = stripe.node_order
                    missing_nodes.update(order[s] for s in missing)
                    report.corrupt += [(manifest.name, k, block_id, order[s])
                                       for block_id, s in corrupt]
                    try:
                        codes.plan_repair(self.scheme, missing, corrupt)
                    except UnrecoverableError:
                        report.fatal_stripes.append((manifest.name, k))
        report.missing = sorted(missing_nodes)
        report.mark = self._mark_fault(end)
        return report

    def repair(self) -> RepairResult:
        """Restore every damaged stripe, then bring the down nodes back up.

        Each damaged stripe gets one ``codes.plan_repair`` plan over the
        slots whose file is missing and the corrupt replicas its scan finds;
        the plans' bandwidth is the whole count.  It is rebuilt from the
        bytes the scan read and written back before the next is scanned: a
        missing node file, created once, gets each stripe's whole run at its
        offset, and a corrupt replica is rewritten in place, so a failed
        write touches no good replica.  A fatal stripe does not stop the
        others: FatalStripeError names the first once the rest are restored.
        A mark that ``fsck`` would report is set past every run a manifest names.  Down
        nodes are marked up only after every block is written back, so the
        next repair rewrites what a failed one left.
        """
        with self._locked() as down, _read_file(self._root) as read, \
                _write_file(self._root, whole=False) as write:
            plans = bandwidth = end = 0  # end: of the furthest run a manifest names
            fatal = None
            size, geo = self.block_size, self._geo
            for manifest in self.manifests():
                for k, stripe in enumerate(manifest.stripes):
                    end = max(end, stripe.offset + self._run)
                    # a node file this repair created still reads as missing,
                    # as the runs it has not written yet are
                    good, corrupt, missing = self._scan(stripe, True, read)
                    if not (corrupt or missing):
                        continue
                    try:
                        plan = codes.plan_repair(self.scheme, missing, corrupt)
                    except UnrecoverableError:
                        fatal = fatal or f"{manifest.name} stripe {k} is unrecoverable"
                        continue
                    # every block the plan reads has a good replica, so kept bytes
                    rebuilt = codes.execute_plan(plan, codes.memory_reader(good))
                    _check_rebuilt(rebuilt, stripe.crc32)
                    good.update(rebuilt)
                    bandwidth += plan.bandwidth_blocks
                    rewrite = {s: None for s in missing}  # None: the whole run
                    for block_id, s in corrupt:
                        rewrite.setdefault(s, set()).add(block_id)
                    order = stripe.node_order
                    for s in sorted(rewrite, key=order.__getitem__):
                        ids, fname = rewrite[s], _node_file(order[s])
                        for rank, block_id in enumerate(geo.blocks_on[s]):
                            if ids is None or block_id in ids:
                                write(fname, stripe.offset + rank * size, good[block_id])
                    plans += 1
            if self._mark_fault(end):  # a valid mark is never lowered
                _log("repair: next_offset is set to %d", end)
                with _write_file(self._root, whole=True) as write_mark:
                    write_mark(MARK, 0, _mark(end))
            if fatal is not None:
                raise FatalStripeError(fatal)

            # every down node now holds its blocks again
            _log("repair: nodes %s are back up", sorted(down))
            self._save_config(set())
            return RepairResult(plans, bandwidth)
