"""File-backed striped block store with fault injection, fsck, and repair.

Tree layout::

    root/store.json             store config and the set of down nodes
    root/.lock                  taken by every mutating operation
    root/n<k>/                  one directory per simulated node
    root/<name>.manifest.json   one manifest per stored file
    n<k>/<name>.s<stripe>.blk   node k's blocks of one stripe

The codes keep several blocks of a stripe on one node, and a node keeps
them in one file: its blocks of the stripe concatenated in block-id order,
``block_size`` bytes each, with no header.  The manifest names no file: a
replica's file follows from (name, stripe, node) and its offset from the
block's rank among that node's blocks of the stripe.  Stripes are numbered
from 0 within each file, whose name prefixes its block files, so puts share
no counter and no block file.  CRC32 (IEEE polynomial) of every block is
recorded in the manifest as 8 hex characters.  Killing a node wipes its
directory, which forces real repair traffic instead of replica
re-registration.

``fsck`` reports a node file that is not there as missing, once, so its
``missing`` count is the number of block files the killed nodes held; a
replica that fails its CRC, or that a short file cuts off, is corrupt.

Memory: no operation holds a file.  ``put`` reads its input a data block at
a time into one buffer that feeds ``codes.StripeEncoder`` and is written to
the block's replicas at once; the parities are written at the stripe's end.
``read`` yields a stored file's bytes in order, a data block at a time with
the tail cut off, and holds one block plus what a degraded-read plan holds;
``get`` builds its ``bytearray`` from it, and the CLI streams it to a temp
file that replaces the output only once every block is written, so a failed
read leaves the output as it was.  ``repair`` holds one stripe: one good
body per block and the plan's sums.  ``fsck`` holds one replica.

Three helpers, ``_read_file``, ``_write_file`` and ``_remove_files``, are the
only code that opens or removes a block file, and they read and write it a
block range at a time.  ``store.json`` and the manifests are read by
``_read_json`` and written compact (no indent, so ``json`` uses its C
encoder) by ``_write_json``, to a temp file that is renamed over its target.
The commit points are ``store.json`` for ``create``, the manifest for
``put``, and the last ``store.json`` write for ``repair``, which marks nodes
up only after their blocks are written.  A write that fails earlier leaves
at most block files that no manifest names, or a replica that the next
repair rewrites.  Nothing is fsynced.

Concurrency: put, kill, revive and repair take an exclusive ``flock`` on
``root/.lock``, which holds across handles, threads and processes, and
re-read the down set inside it.  Reads take no lock.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import codes
from .codes import (
    ChecksumMismatchError,
    MissingBlockError,
    Scheme,
    parse_scheme,
)

log = logging.getLogger(__name__)


class StoreError(Exception):
    pass


class FatalStripeError(StoreError):
    """A stripe has lost more than the scheme can recover."""


@dataclass
class NodeState:
    node_id: int
    status: str  # "up" | "down"
    path: Path


@dataclass
class BlockRecord:
    block_id: int
    role: str
    nodes: list[int]
    crc32: str


@dataclass
class StripeRecord:
    index: int  # stripe number within its file
    node_order: list[int]
    blocks: list[BlockRecord]


@dataclass
class StoreManifest:
    name: str
    size: int
    scheme: str
    block_size: int
    stripes: list[StripeRecord]

    @property
    def stripe_count(self) -> int:
        return len(self.stripes)

    def to_dict(self) -> dict:
        return {
            "file": self.name,
            "size": self.size,
            "scheme": self.scheme,
            "block_size": self.block_size,
            "stripe_count": self.stripe_count,
            "stripes": [
                {
                    "index": s.index,
                    "node_order": s.node_order,
                    "blocks": [
                        {
                            "block": b.block_id,
                            "role": b.role,
                            "nodes": b.nodes,
                            "crc32": b.crc32,
                        }
                        for b in s.blocks
                    ],
                }
                for s in self.stripes
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StoreManifest":
        if any("files" in b for s in d["stripes"] for b in s["blocks"]):
            raise StoreError(
                f"{d['file']} is stored in the old layout of one file per replica"
                " (its manifest lists 'files'), which this store does not read"
            )
        stripes = [
            StripeRecord(
                index=s["index"],
                node_order=list(s["node_order"]),
                blocks=[
                    BlockRecord(b["block"], b["role"], list(b["nodes"]), b["crc32"])
                    for b in s["blocks"]
                ],
            )
            for s in d["stripes"]
        ]
        return cls(d["file"], d["size"], d["scheme"], d["block_size"], stripes)


@dataclass
class FsckReport:
    # missing node files as (file, stripe, node); corrupt replicas as
    # (file, stripe, block, node)
    missing: list[tuple[str, int, int]] = field(default_factory=list)
    corrupt: list[tuple[str, int, int, int]] = field(default_factory=list)
    fatal_stripes: list[tuple[str, int]] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not (self.missing or self.corrupt or self.fatal_stripes)


@dataclass
class RepairResult:
    plans_executed: int
    bandwidth_blocks: int


def _crc(data: bytes) -> str:
    return f"{zlib.crc32(data):08x}"


def _read_json(path: str) -> dict | None:
    """The JSON file's object, or None when the file does not exist.
    Unbuffered: the file is read whole, so a buffer would only add a copy."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return json.loads(fh.readall())
    except (FileNotFoundError, NotADirectoryError):
        return None


def _write_json(path: Path, obj: dict) -> None:
    """Write *obj* to a temp file and rename it over *path*."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
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


def _node_files(name: str, index: int, replicas) -> dict[int, tuple[str, list[int]]]:
    """Each node's block file of stripe *index* of *name*, with the ids of
    the blocks it holds in file order.  *replicas* pairs each block id with
    its nodes; a node's blocks follow each other in block-id order."""
    held: dict[int, list[int]] = {}
    for block_id, nodes in sorted(replicas):
        for node in nodes:
            held.setdefault(node, []).append(block_id)
    return {node: (f"n{node}/{name}.s{index}.blk", ids) for node, ids in held.items()}


def _stripe_files(manifest: StoreManifest, stripe: StripeRecord):
    """``_node_files`` of a stored stripe."""
    return _node_files(manifest.name, stripe.index, ((b.block_id, b.nodes) for b in stripe.blocks))


def _places(files: dict[int, tuple[str, list[int]]], size: int) -> dict[tuple[int, int], tuple]:
    """(file, offset) of each replica, keyed (block id, node), for blocks of
    *size* bytes in the node files *files*."""
    return {
        (block_id, node): (fname, rank * size)
        for node, (fname, ids) in files.items()
        for rank, block_id in enumerate(ids)
    }


def _preads(fd: int, offsets, size: int, buffer: bytearray | None):
    """Read *size* bytes at each of *offsets* from *fd*, then close it."""
    try:
        for offset in offsets:
            if buffer is None:
                yield os.pread(fd, size, offset)
            else:
                yield memoryview(buffer)[: os.preadv(fd, [buffer], offset)]
    finally:
        os.close(fd)


def _source_reader(sources: dict[int, bytes]):
    """Block accessor over bytes already read and checked; a block with no
    good replica left raises MissingBlockError, as a stripe reader does."""

    def reader(block_id: int) -> bytes:
        body = sources.get(block_id)
        if body is None:
            raise MissingBlockError(f"no live replica of block {block_id}")
        return body

    return reader


class BlockStore:
    """A directory-per-node block store for one coding scheme."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._root = str(self.root)
        cfg = self._read_config()
        self.scheme: Scheme = parse_scheme(cfg["scheme"])
        self.node_count: int = cfg["nodes"]
        self.block_size: int = cfg["block_size"]
        self.seed: int = cfg["seed"]
        self._down: set[int] = set(cfg["down"])
        self.degraded_log: list[tuple[str, int, int, int]] = []

    @classmethod
    def create(
        cls, root: str | Path, scheme: Scheme, nodes: int, block_size: int, seed: int = 0
    ) -> "BlockStore":
        if block_size <= 0:
            raise StoreError("block size must be positive")
        if nodes < scheme.code_length:
            raise StoreError(
                f"need at least {scheme.code_length} nodes for {scheme.name}, got {nodes}"
            )
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / "store.json").exists():
            raise StoreError(f"store already exists at {root}")
        # store.json is the commit point: a crashed create leaves node
        # directories that the next create reuses
        for i in range(nodes):
            (root / f"n{i}").mkdir(exist_ok=True)
        cfg = {"scheme": scheme.name, "nodes": nodes,
               "block_size": block_size, "seed": seed, "down": []}
        _write_json(root / "store.json", cfg)
        return cls(root)

    # -- bookkeeping --------------------------------------------------------

    def _read_config(self) -> dict:
        cfg = _read_json(f"{self._root}/store.json")
        if cfg is None:
            raise StoreError(f"no store at {self.root}")
        return cfg

    def _save_config(self) -> None:
        cfg = {"scheme": self.scheme.name, "nodes": self.node_count,
               "block_size": self.block_size, "seed": self.seed, "down": sorted(self._down)}
        _write_json(self.root / "store.json", cfg)

    @contextmanager
    def _locked(self):
        """Hold the store's lock, with the down set as store.json has it.
        The lock is released when its file is closed."""
        with open(f"{self._root}/.lock", "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            self._down = set(self._read_config()["down"])
            yield

    def node_dir(self, node_id: int) -> Path:
        return self.root / f"n{node_id}"

    def node_state(self, node_id: int) -> NodeState:
        if not 0 <= node_id < self.node_count:
            raise StoreError(f"unknown node {node_id}")
        status = "down" if node_id in self._down else "up"
        return NodeState(node_id, status, self.node_dir(node_id))

    def nodes(self) -> list[NodeState]:
        return [self.node_state(i) for i in range(self.node_count)]

    def up_nodes(self) -> list[int]:
        return [i for i in range(self.node_count) if i not in self._down]

    def _manifest_path(self, name: str) -> Path:
        return self.root / f"{name}.manifest.json"

    def load_manifest(self, name: str) -> StoreManifest:
        d = _read_json(f"{self._root}/{name}.manifest.json") if _valid_name(name) else None
        if d is None:
            raise StoreError(f"no such stored file: {name}")
        return StoreManifest.from_dict(d)

    def manifests(self) -> list[StoreManifest]:
        with os.scandir(self._root) as entries:
            names = sorted(e.name for e in entries if e.name.endswith(".manifest.json"))
        return [StoreManifest.from_dict(_read_json(f"{self._root}/{n}")) for n in names]

    # -- block files --------------------------------------------------------
    # The only code that opens or removes a block file; *fname* is a node
    # file's root-relative name, n<node>/<name>.s<stripe>.blk.

    def _read_file(self, fname: str, offsets, size: int, buffer: bytearray | None = None):
        """Read *size* bytes at each of *offsets* through one open of the
        file, or return None when it does not exist.  The iterator yields
        each read as new bytes or, given *buffer*, as a view of it that the
        next read overwrites; a read past the file's end comes back short.
        The file is closed when the iterator ends, so read it to its end."""
        try:
            fd = os.open(f"{self._root}/{fname}", os.O_RDONLY)
        except (FileNotFoundError, NotADirectoryError):
            return None
        return _preads(fd, offsets, size, buffer)

    @contextmanager
    def _write_file(self, fnames, whole: bool):
        """Open the files for writing, made empty first when *whole*, and
        yield write(fname, offset, body), which writes *body* at *offset*
        of one of them.  Each file is opened once and closed on the way
        out; a file written in place keeps every byte it is not given."""
        flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if whole else 0)
        fds = {}
        try:
            for fname in fnames:
                fds[fname] = os.open(f"{self._root}/{fname}", flags, 0o666)

            def write(fname: str, offset: int, body) -> None:
                fd, view = fds[fname], memoryview(body)
                while view:
                    n = os.pwrite(fd, view, offset)
                    view, offset = view[n:], offset + n

            yield write
        finally:
            for fd in fds.values():
                os.close(fd)

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

    # -- write path ---------------------------------------------------------

    def put(
        self,
        path: str | Path,
        name: str | None = None,
        scheme: Scheme | None = None,
        block_size: int | None = None,
    ) -> StoreManifest:
        """Stripe, encode and place a file; persists and returns its manifest.

        The file is read one data block at a time into one buffer: each block
        is fed to the parity sums and its replicas are written at once, and
        the parities are written at the end of the stripe, each as it is
        made, so a put holds a block and the parity sums, never a stripe or
        the file.  Each replica is written at its offset in its node's file
        of the stripe; the stripe's node files are opened once each, and
        closed before the next stripe.  The input may be any readable file,
        a pipe included; it is read to its end.

        Scheme and block size default to the store's configuration but may
        vary per file; each manifest records its own.  The manifest's rename
        commits the file.  A put that fails before it may leave block files
        that no manifest names; a retry of the same name overwrites them.
        """
        path = Path(path)
        if name is None:
            name = path.name
        if not _valid_name(name):
            raise StoreError(f"invalid file name: {name!r}")
        scheme = scheme or self.scheme
        block_size = block_size or self.block_size
        if block_size <= 0:
            raise StoreError("block size must be positive")
        with self._locked():
            if self._manifest_path(name).exists():
                raise StoreError(f"{name} is already stored")
            pool = self.up_nodes()
            if len(pool) < scheme.code_length:
                raise StoreError("insufficient up nodes")
            D = scheme.data_block_count
            block = bytearray(block_size)
            view = memoryview(block)
            size = 0
            stripes: list[StripeRecord] = []
            with open(path, "rb", buffering=0) as src:
                while n := fill(src, view):
                    k = len(stripes)
                    layout_seed = zlib.crc32(f"{self.seed}:{name}:{k}".encode())
                    layout = codes.build_layout(scheme, pool, layout_seed)
                    roles = layout.block_roles
                    data_block_of = {r.index: b for b, r in roles.items() if r.kind == "data"}
                    hosts = {b: list(layout.replicas(b)) for b in roles}
                    files = _node_files(name, k, hosts.items())
                    places = _places(files, block_size)
                    records = {}
                    encoder = codes.StripeEncoder(scheme, block_size)
                    with self._write_file([f for f, _ in files.values()], whole=True) as write:

                        def place(b: int, body) -> None:
                            for node in hosts[b]:
                                write(*places[b, node], body)
                            records[b] = BlockRecord(b, roles[b].as_string(), hosts[b], _crc(body))

                        for i in range(D):
                            if i:
                                n = fill(src, view)
                            if n < block_size:  # the file's end: pad the stripe with zeros
                                view[n:] = bytes(block_size - n)
                            size += n
                            encoder.feed(i, block)
                            place(data_block_of[i], block)
                        for b, body in encoder.parities():
                            place(b, body)
                    blocks = [records[b] for b in sorted(records)]
                    stripes.append(StripeRecord(k, list(layout.node_order), blocks))
            manifest = StoreManifest(name, size, scheme.name, block_size, stripes)
            _write_json(self._manifest_path(name), manifest.to_dict())
            return manifest

    # -- read path ----------------------------------------------------------

    def _scan(self, manifest: StoreManifest, stripe: StripeRecord, keep: bool):
        """Read each live node file of the stripe once, a block at a time
        into one buffer.  Returns (good, corrupt, missing): the ids of the
        blocks with a good replica, each corrupt replica as (record, node),
        and the nodes whose file is missing, in node order; a down node's
        file is missing without being read, and a replica that a short file
        cuts off is corrupt.  With *keep*, each good block id maps to a copy
        of its first good replica, which serves for all of them because
        good replicas pass the same CRC; else it maps to None."""
        size = manifest.block_size
        buffer = bytearray(size)
        by_id = {b.block_id: b for b in stripe.blocks}
        good, corrupt, missing = {}, [], []
        for node, (fname, ids) in sorted(_stripe_files(manifest, stripe).items()):
            reads = None
            if node not in self._down:
                reads = self._read_file(fname, range(0, len(ids) * size, size), size, buffer)
            if reads is None:
                missing.append(node)
                continue
            for block_id, body in zip(ids, reads, strict=True):
                record = by_id[block_id]
                if len(body) == size and _crc(body) == record.crc32:
                    if good.get(block_id) is None:
                        good[block_id] = bytes(body) if keep else None
                else:
                    corrupt.append((record, node))
        return good, corrupt, missing

    def _stripe_reader(self, manifest: StoreManifest, stripe: StripeRecord):
        """Block accessor over the stripe's replicas: returns the first
        replica, in the record's node order, that passes its CRC, skipping
        down nodes, missing files and corrupt copies.  Raises
        ChecksumMismatchError when only corrupt replicas remain,
        MissingBlockError when none is left."""
        size = manifest.block_size
        by_id = {b.block_id: b for b in stripe.blocks}
        places = _places(_stripe_files(manifest, stripe), size)

        def reader(block_id: int) -> bytes:
            record = by_id.get(block_id)
            if record is None:
                raise MissingBlockError(f"unknown block {block_id}")
            corrupt = None
            for node in record.nodes:
                if node in self._down:
                    continue
                fname, offset = places[block_id, node]
                reads = self._read_file(fname, (offset,), size)
                if reads is None:
                    continue
                (body,) = reads
                if len(body) == size and _crc(body) == record.crc32:
                    return body
                corrupt = fname
            if corrupt is not None:
                raise ChecksumMismatchError(f"block {block_id} in {corrupt} failed its CRC check")
            raise MissingBlockError(f"no live replica of block {block_id}")

        return reader

    def read(self, name: str) -> Iterator[bytes | memoryview]:
        """The stored file's bytes in order, one data block at a time, the
        last block cut to the file's size and blocks wholly past it left
        out (each is still read and checked).  The manifest is loaded here,
        so a missing file raises before anything is read.

        A block with no good replica is served through a degraded-read
        plan, and each executed plan's bandwidth is logged.  A plan also
        rebuilds the other blocks its solve determines, and those are kept
        for the rest of the stripe; nothing else outlives the block it
        belongs to, so a read holds a block plus what a plan holds."""
        return self._read_blocks(self.load_manifest(name))

    def _read_blocks(self, manifest: StoreManifest) -> Iterator[bytes | memoryview]:
        scheme = parse_scheme(manifest.scheme)
        left = manifest.size
        for stripe in manifest.stripes:
            slot_of = {node: s for s, node in enumerate(stripe.node_order)}
            down_slots = {
                slot_of[n] for n in stripe.node_order if n in self._down
            }
            data_records = sorted(
                (b for b in stripe.blocks if b.role.startswith("data:")),
                key=lambda b: int(b.role.split(":")[1]),
            )
            reader = self._stripe_reader(manifest, stripe)
            rebuilt: dict[int, bytes] = {}
            for record in data_records:
                try:
                    body = reader(record.block_id)
                except (MissingBlockError, ChecksumMismatchError):
                    # no good replica left: decode it from the stripe
                    if record.block_id not in rebuilt:
                        bad_slots = {slot_of[node] for node in record.nodes}
                        plan = codes.plan_degraded_read(
                            scheme, record.block_id, down_slots | bad_slots
                        )
                        rebuilt.update(codes.execute_plan(plan, reader))
                        self.degraded_log.append(
                            (manifest.name, stripe.index, record.block_id, plan.bandwidth_blocks)
                        )
                        log.info(
                            "degraded read: %s stripe %d block %d via %d transfers",
                            manifest.name, stripe.index, record.block_id,
                            plan.bandwidth_blocks,
                        )
                    body = rebuilt[record.block_id]
                    if _crc(body) != record.crc32:
                        raise ChecksumMismatchError(
                            f"degraded read of block {record.block_id} failed its CRC check"
                        )
                if len(body) > left:
                    body = memoryview(body)[:left]
                if body:
                    left -= len(body)
                    yield body

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

    def kill_node(self, node_id: int) -> NodeState:
        """Mark a node down and destroy its contents (idempotent)."""
        self.node_state(node_id)
        with self._locked():
            self._remove_files(node_id)
            self._down.add(node_id)
            self._save_config()
        return self.node_state(node_id)

    def revive_node(self, node_id: int) -> NodeState:
        """Bring a node back up, empty; its blocks need repair."""
        self.node_state(node_id)
        with self._locked():
            self._down.discard(node_id)
            self._save_config()
        return self.node_state(node_id)

    # -- scrub and repair ---------------------------------------------------

    def fsck(self) -> FsckReport:
        """Read-only scan: missing node files, replicas that fail their CRC
        or that a short file cuts off, fatal stripes."""
        report = FsckReport()
        for manifest in self.manifests():
            scheme = parse_scheme(manifest.scheme)
            for stripe in manifest.stripes:
                good, corrupt, missing = self._scan(manifest, stripe, keep=False)
                report.missing += [(manifest.name, stripe.index, node) for node in missing]
                report.corrupt += [(manifest.name, stripe.index, record.block_id, node)
                                   for record, node in corrupt]
                if not codes.can_decode_from(scheme, good):
                    report.fatal_stripes.append((manifest.name, stripe.index))
        return report

    def repair(self) -> RepairResult:
        """Restore every damaged stripe, then bring the down nodes back up.

        Measured bandwidth is the sum of the executed plans' transfer
        counts.  Each damaged stripe is rebuilt from the bytes its scan read
        and written back before the next is scanned: a missing node file is
        written whole, and a corrupt replica in place, so a write that fails
        touches no good replica.  A stripe that cannot
        be rebuilt does not stop the others: FatalStripeError names the
        first one after every other stripe is restored.  Down nodes are
        marked up only after every block is written back, so a repair that
        fails leaves them down and the next repair writes their blocks
        again.
        """
        with self._locked():
            plans = bandwidth = 0
            fatal = None
            for manifest in self.manifests():
                scheme = parse_scheme(manifest.scheme)
                for stripe in manifest.stripes:
                    good, corrupt, missing = self._scan(manifest, stripe, keep=True)
                    if not (corrupt or missing):
                        continue
                    if not codes.can_decode_from(scheme, good):
                        fatal = fatal or f"{manifest.name} stripe {stripe.index} is unrecoverable"
                        continue
                    # the plan reads only blocks on undamaged nodes, whose every
                    # replica is good, so each block it reads has kept bytes
                    rewrite = {node: None for node in missing}  # None: the whole file
                    for record, node in corrupt:
                        rewrite.setdefault(node, set()).add(record.block_id)
                    slot_of = {node: s for s, node in enumerate(stripe.node_order)}
                    plan = codes.plan_repair(scheme, frozenset(slot_of[n] for n in rewrite))
                    recovered = codes.execute_plan(plan, _source_reader(good))
                    files = _stripe_files(manifest, stripe)
                    crc = {b.block_id: b.crc32 for b in stripe.blocks}
                    for node, ids in sorted(rewrite.items()):
                        fname, held = files[node]
                        with self._write_file([fname], whole=ids is None) as write:
                            for rank, block_id in enumerate(held):
                                if ids is not None and block_id not in ids:
                                    continue
                                body = recovered[block_id]
                                if _crc(body) != crc[block_id]:
                                    raise codes.InconsistentStripeError(
                                        f"repaired block {block_id} fails its CRC"
                                    )
                                write(fname, rank * manifest.block_size, body)
                    plans += 1
                    bandwidth += plan.bandwidth_blocks
            if fatal is not None:
                raise FatalStripeError(fatal)

            # every down node now holds its blocks again
            log.info("repair: nodes %s are back up", sorted(self._down))
            self._down.clear()
            self._save_config()
            return RepairResult(plans, bandwidth)
