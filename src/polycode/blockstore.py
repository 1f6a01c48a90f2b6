"""File-backed striped block store with fault injection, fsck, and repair.

Tree layout::

    root/store.json             store config and the set of down nodes
    root/.lock                  taken by every mutating operation
    root/n<k>/                  one directory per simulated node
    root/<name>.manifest.json   one manifest per stored file
    n<k>/<name>.s<stripe>.blk   node k's blocks of one stripe

The codes keep several blocks of a stripe on one node, and a node keeps
them in one file: its blocks of the stripe concatenated in block-id order,
``block_size`` bytes each, with no header.  Where each block goes follows
from the scheme alone, so a stripe's manifest record holds two things: its
``node_order``, the node that plays each of the scheme's slots, and the
CRC32 (IEEE polynomial) of every block, by block id, as 8 hex characters.
The store works in slots and reads the rest from ``codes._geometry``: a
block's slots from ``placements``, the data blocks' order from
``data_block_of``, and a replica's offset from the block's rank in
``blocks_on`` of its slot, which lists a slot's blocks in ascending order.
A node id appears only in a block file's name and in ``FsckReport``.
Stripes are numbered from 0 within each file, whose name prefixes its block
files, so puts share no counter and no block file.  Every file takes the
store's scheme and block size.  Killing a node wipes its directory, which
forces real repair traffic instead of replica re-registration.

A node file that is not there is the only sign of a lost slot: ``fsck``
reports it as missing, once, so its ``missing`` count is the number of
block files the killed nodes held; a replica that fails its CRC, or that a
short file cuts off, is corrupt.

Memory: no operation holds a file.  ``put`` reads its input a data block at
a time into one buffer that feeds ``codes.StripeEncoder`` and is written to
the block's replicas at once; the parities are written at the stripe's end.
``read`` yields a stored file's bytes in order, a data block at a time with
the tail cut off, and holds one block plus what a degraded-read plan holds,
or a stripe when no plan fits and the stripe is solved whole;
``get`` builds its ``bytearray`` from it, and the CLI streams it to a temp
file that replaces the output only once every block is written, so a failed
read leaves the output as it was.  ``repair`` holds one stripe: one good
body per block and the plan's sums.  ``fsck`` reads each node file with one
read into one buffer, sized to the stripe's largest node file, and holds it.

Three helpers, ``_read_file``, ``_write_file`` and ``_remove_files``, are the
only code that opens or removes a block file; a read is one range of it, and
a write one block.  ``store.json`` and the manifests are read by
``_read_json``, and refused by name when they are not JSON or lack a field
the store reads; they are written compact (no indent, so ``json`` uses its
C encoder) by ``_write_json``, to a temp file that is renamed over its target.
The commit points are ``store.json`` for ``create``, the manifest for
``put``, and the last ``store.json`` write for ``repair``, which marks nodes
up only after their blocks are written.  A write that fails earlier leaves
at most block files that no manifest names, or a replica that the next
repair rewrites.  Nothing is fsynced.

Concurrency: put, kill, revive and repair take an exclusive ``flock`` on
``root/.lock``, which holds across handles, threads and processes, and read
the down set from ``store.json`` inside it; no handle keeps a copy.  That
set decides placement and node status only.  Reads (``read``, ``get`` and
``fsck``) take no lock and consult no down set: they see the node files as
they are.  This is sound because ``kill_node`` removes a node's files
before it marks the node down, and ``repair`` writes them before it marks
the node up; a down node that holds files, after a repair that stopped,
serves those whose CRCs pass.
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
    UnrecoverableError,
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
class StripeRecord:
    index: int  # stripe number within its file
    node_order: list[int]  # node_order[s] is the node that plays slot s
    crc32: list[str]  # by block id


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
                {"index": s.index, "node_order": s.node_order, "crc32": s.crc32}
                for s in self.stripes
            ],
        }

    @classmethod
    def from_dict(cls, d: dict, source: str = "manifest") -> "StoreManifest":
        _require(d, source, file=str, size=int, scheme=str, block_size=int, stripes=list)
        scheme = parse_scheme(d["scheme"])
        stripes = [_stripe_record(d, s, scheme) for s in d["stripes"]]
        return cls(d["file"], d["size"], d["scheme"], d["block_size"], stripes)


def _stripe_record(d: dict, stripe: dict, scheme: Scheme) -> StripeRecord:
    """A manifest's stripe record, refused unless it has a node per slot
    and a CRC per block of the scheme."""
    _require(stripe, f"{d['file']} stripe record", index=int, node_order=list)
    order, crcs = stripe["node_order"], stripe.get("crc32")
    if (len(order) != scheme.code_length or not isinstance(crcs, list)
            or len(crcs) != scheme.block_count or not all(isinstance(n, int) for n in order)):
        raise StoreError(f"{d['file']} stripe {stripe['index']} disagrees with"
                         f" the {scheme.name} layout")
    return StripeRecord(stripe["index"], list(order), list(crcs))


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
    """The JSON file's value, or None when the file does not exist.
    Unbuffered: the file is read whole, so a buffer would only add a copy."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return json.loads(fh.readall())
    except (FileNotFoundError, NotADirectoryError):
        return None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise StoreError(f"{path} is not JSON: {exc}") from None


def _require(obj, source: str, **kinds) -> None:
    """Refuse *obj*, read from *source*, unless it maps each key of *kinds* to its type."""
    if not (isinstance(obj, dict) and all(isinstance(obj.get(k), t) for k, t in kinds.items())):
        raise StoreError(f"{source} is malformed: it needs {', '.join(kinds)}")


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


def _node_file(name: str, index: int, node: int) -> str:
    """The root-relative name of *node*'s block file of stripe *index*."""
    return f"n{node}/{name}.s{index}.blk"


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
        self.degraded_transfers = 0  # summed over this handle's degraded reads

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
        path = f"{self._root}/store.json"
        cfg = _read_json(path)
        if cfg is None:
            raise StoreError(f"no store at {self.root}")
        _require(cfg, path, scheme=str, nodes=int, block_size=int, seed=int, down=list)
        if not all(isinstance(n, int) for n in cfg["down"]):
            raise StoreError(f"{path} is malformed: its down list holds a non-number")
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

    def node_dir(self, node_id: int) -> Path:
        return self.root / f"n{node_id}"

    def nodes(self) -> list[NodeState]:
        """Each node's state as store.json has it now."""
        down = self._read_config()["down"]
        return [NodeState(i, "down" if i in down else "up", self.node_dir(i))
                for i in range(self.node_count)]

    def node_state(self, node_id: int) -> NodeState:
        if not 0 <= node_id < self.node_count:
            raise StoreError(f"unknown node {node_id}")
        return self.nodes()[node_id]

    def _manifest_path(self, name: str) -> Path:
        return self.root / f"{name}.manifest.json"

    def load_manifest(self, name: str) -> StoreManifest:
        d = _read_json(f"{self._root}/{name}.manifest.json") if _valid_name(name) else None
        if d is None:
            raise StoreError(f"no such stored file: {name}")
        return StoreManifest.from_dict(d, f"{self._root}/{name}.manifest.json")

    def manifests(self) -> list[StoreManifest]:
        with os.scandir(self._root) as entries:
            paths = sorted(e.path for e in entries if e.name.endswith(".manifest.json"))
        return [StoreManifest.from_dict(_read_json(path), path) for path in paths]

    # -- block files --------------------------------------------------------
    # The only code that opens or removes a block file; *fname* is a node
    # file's root-relative name, n<node>/<name>.s<stripe>.blk.

    def _read_file(self, fname: str, offset: int, size: int, buffer: bytearray | None = None):
        """Read *size* bytes at *offset* of the file, or return None when it
        does not exist.  The read comes back as new bytes or, given
        *buffer*, as a view of its start; a read past the file's end comes
        back short."""
        try:
            fd = os.open(f"{self._root}/{fname}", os.O_RDONLY)
        except (FileNotFoundError, NotADirectoryError):
            return None
        try:
            if buffer is None:
                return os.pread(fd, size, offset)
            return memoryview(buffer)[: os.preadv(fd, [memoryview(buffer)[:size]], offset)]
        finally:
            os.close(fd)

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

    def put(self, path: str | Path, name: str | None = None) -> StoreManifest:
        """Stripe, encode and place a file; persists and returns its manifest.

        The file is read one data block at a time into one buffer: each block
        is fed to the parity sums and its replicas are written at once, and
        the parities are written at the end of the stripe, each as it is
        made, so a put holds a block and the parity sums, never a stripe or
        the file.  Each replica is written at its offset in its node's file
        of the stripe; the stripe's node files are opened once each, and
        closed before the next stripe.  The input may be any readable file,
        a pipe included; it is read to its end.

        The file takes the store's scheme and block size, which its manifest
        records.  The manifest's rename commits the file.  A put that fails
        before it may leave block files that no manifest names; a retry of
        the same name overwrites them.
        """
        path = Path(path)
        if name is None:
            name = path.name
        if not _valid_name(name):
            raise StoreError(f"invalid file name: {name!r}")
        scheme, block_size = self.scheme, self.block_size
        if block_size <= 0:  # store.json comes from outside the program
            raise StoreError("block size must be positive")
        with self._locked() as down:
            if self._manifest_path(name).exists():
                raise StoreError(f"{name} is already stored")
            pool = [i for i in range(self.node_count) if i not in down]
            if len(pool) < scheme.code_length:
                raise StoreError("insufficient up nodes")
            geo = codes._geometry(scheme)
            block = bytearray(block_size)
            view = memoryview(block)
            size = 0
            stripes: list[StripeRecord] = []
            with open(path, "rb", buffering=0) as src:
                while n := fill(src, view):
                    k = len(stripes)
                    layout_seed = zlib.crc32(f"{self.seed}:{name}:{k}".encode())
                    order = codes.build_layout(scheme, pool, layout_seed)
                    fnames = [_node_file(name, k, node) for node in order]
                    crcs = [""] * scheme.block_count
                    encoder = codes.StripeEncoder(scheme, block_size)
                    with self._write_file(fnames, whole=True) as write:

                        def place(b: int, body) -> None:
                            for s in geo.placements[b]:
                                write(fnames[s], geo.blocks_on[s].index(b) * block_size, body)
                            crcs[b] = _crc(body)

                        for i in range(scheme.data_block_count):
                            if i:
                                n = fill(src, view)
                            if n < block_size:  # the file's end: pad the stripe with zeros
                                view[n:] = bytes(block_size - n)
                            size += n
                            encoder.feed(i, block)
                            place(geo.data_block_of[i], block)
                        for b, body in encoder.parities():
                            place(b, body)
                    stripes.append(StripeRecord(k, list(order), crcs))
            manifest = StoreManifest(name, size, scheme.name, block_size, stripes)
            _write_json(self._manifest_path(name), manifest.to_dict())
            return manifest

    # -- read path ----------------------------------------------------------

    def _scan(self, manifest: StoreManifest, stripe: StripeRecord, geo, keep: bool):
        """Read each node file of the stripe with one read into one buffer,
        sized to the largest of them, and check each block's slice.
        Returns (good, corrupt, missing): the ids of the blocks with a good
        replica, each corrupt replica as (block id, slot), and the slots
        whose file is missing, in node order; a replica that a short file
        cuts off is corrupt.  With *keep*, each good block id maps to a copy
        of its first good replica, which serves for all of them because good
        replicas pass the same CRC; else it maps to None."""
        size, order = manifest.block_size, stripe.node_order
        buffer = bytearray(size * max(map(len, geo.blocks_on.values())))
        good, corrupt, missing = {}, [], []
        for slot in sorted(range(len(order)), key=order.__getitem__):
            ids = geo.blocks_on[slot]
            fname = _node_file(manifest.name, stripe.index, order[slot])
            body = self._read_file(fname, 0, len(ids) * size, buffer)
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

    def _stripe_reader(self, manifest: StoreManifest, stripe: StripeRecord, geo):
        """Block accessor over the stripe's replicas: returns the first
        replica, in the block's slot order, that passes its CRC, skipping
        missing files and corrupt copies.  Raises ChecksumMismatchError
        when only corrupt replicas remain, MissingBlockError when none is
        left."""
        size = manifest.block_size

        def reader(block_id: int) -> bytes:
            slots = geo.placements.get(block_id)
            if slots is None:
                raise MissingBlockError(f"unknown block {block_id}")
            corrupt = None
            for slot in slots:
                fname = _node_file(manifest.name, stripe.index, stripe.node_order[slot])
                body = self._read_file(fname, geo.blocks_on[slot].index(block_id) * size, size)
                if body is None:
                    continue
                if len(body) == size and _crc(body) == stripe.crc32[block_id]:
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
        plan over the slots whose node file is not there, which the
        stripe's first degraded read looks up; each executed plan's
        bandwidth is logged and added to ``degraded_transfers``.  A plan
        also rebuilds the other blocks its solve determines, and those are
        kept for the rest of the stripe; nothing else outlives the block it
        belongs to, so a read holds a block plus what a plan holds.  A plan
        works on slots, so it fails when a block is lost on a live slot
        too; then every block of the stripe with a good replica is read, one
        transfer each, and ``codes.oracle_decode`` rebuilds the stripe's
        data, which is kept for the rest of the stripe."""
        return self._read_blocks(self.load_manifest(name))

    def _read_blocks(self, manifest: StoreManifest) -> Iterator[bytes | memoryview]:
        scheme = parse_scheme(manifest.scheme)
        geo = codes._geometry(scheme)
        left = manifest.size
        for stripe in manifest.stripes:
            reader = self._stripe_reader(manifest, stripe, geo)
            rebuilt: dict[int, bytes] = {}
            absent = None  # the slots whose node file is not there
            for i in range(scheme.data_block_count):
                block_id = geo.data_block_of[i]
                try:
                    body = reader(block_id)
                except (MissingBlockError, ChecksumMismatchError):
                    # no good replica left: decode it from the stripe
                    if block_id not in rebuilt:
                        if absent is None:
                            fnames = (_node_file(manifest.name, stripe.index, node)
                                      for node in stripe.node_order)
                            absent = {s for s, fname in enumerate(fnames)
                                      if self._read_file(fname, 0, 0) is None}
                        try:
                            plan = codes.plan_degraded_read(
                                scheme, block_id, absent.union(geo.placements[block_id])
                            )
                            rebuilt.update(codes.execute_plan(plan, reader))
                            transfers = plan.bandwidth_blocks
                        except (UnrecoverableError, MissingBlockError, ChecksumMismatchError):
                            # the plan sees slots, not lost blocks: solve the
                            # stripe from every block with a good replica
                            good = self._scan(manifest, stripe, geo, keep=True)[0]
                            data = codes.oracle_decode(scheme, good)
                            rebuilt.update((geo.data_block_of[k], d) for k, d in enumerate(data))
                            transfers = len(good)
                        self.degraded_transfers += transfers
                        log.info(
                            "degraded read: %s stripe %d block %d via %d transfers",
                            manifest.name, stripe.index, block_id, transfers,
                        )
                    body = rebuilt[block_id]
                    if _crc(body) != stripe.crc32[block_id]:
                        raise ChecksumMismatchError(
                            f"degraded read of block {block_id} failed its CRC check"
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
        """Read-only scan: missing node files, replicas that fail their CRC
        or that a short file cuts off, fatal stripes."""
        report = FsckReport()
        for manifest in self.manifests():
            scheme = parse_scheme(manifest.scheme)
            geo = codes._geometry(scheme)
            for stripe in manifest.stripes:
                good, corrupt, missing = self._scan(manifest, stripe, geo, keep=False)
                order = stripe.node_order
                report.missing += [(manifest.name, stripe.index, order[s]) for s in missing]
                report.corrupt += [(manifest.name, stripe.index, block_id, order[s])
                                   for block_id, s in corrupt]
                if not codes.can_decode_from(scheme, good):
                    report.fatal_stripes.append((manifest.name, stripe.index))
        return report

    def repair(self) -> RepairResult:
        """Restore every damaged stripe, then bring the down nodes back up.

        A corrupt replica whose block has a good replica is copied whole
        from it, one transfer; the code rebuilds the rest through one repair
        plan over the slots whose file is missing and the slots of blocks
        with no good replica left.  When those slots are fatal although the
        good blocks determine the stripe, ``codes.oracle_decode`` solves it
        from every good block, one transfer each, and each block on a
        failed slot costs one more.  Measured bandwidth is the plans'
        transfer counts, those of the solves, plus the copies.  Each
        damaged stripe is rebuilt from the bytes its scan read and written
        back before the next is scanned: a missing node file is written whole, and a corrupt replica
        in place, so a write that fails touches no good replica.  A stripe
        that cannot be rebuilt does not stop the others: FatalStripeError
        names the first one after every other stripe is restored.  Down
        nodes are marked up only after every block is written back, so a
        repair that fails leaves them down, and the next repair rewrites
        what is still missing or corrupt.
        """
        with self._locked() as down:
            plans = bandwidth = 0
            fatal = None
            for manifest in self.manifests():
                scheme = parse_scheme(manifest.scheme)
                geo = codes._geometry(scheme)
                size, name = manifest.block_size, manifest.name
                for stripe in manifest.stripes:
                    good, corrupt, missing = self._scan(manifest, stripe, geo, keep=True)
                    if not (corrupt or missing):
                        continue
                    if not codes.can_decode_from(scheme, good):
                        fatal = fatal or f"{name} stripe {stripe.index} is unrecoverable"
                        continue
                    # a block the plan reads has a replica off the failed
                    # slots, which is good or has a good twin, so it has kept bytes
                    failed = set(missing) | {s for block_id, s in corrupt if block_id not in good}
                    rewrite = {s: None for s in missing}  # None: the whole file
                    for block_id, s in corrupt:
                        rewrite.setdefault(s, set()).add(block_id)
                    if failed:
                        try:
                            plan = codes.plan_repair(scheme, frozenset(failed))
                            good.update(codes.execute_plan(plan, codes.memory_reader(good)))
                            bandwidth += plan.bandwidth_blocks
                        except UnrecoverableError:
                            # the failed slots are fatal but the good blocks
                            # are not: solve the stripe from them
                            bandwidth += len(good) + sum(len(geo.blocks_on[s]) for s in failed)
                            good = codes.encode_stripe(scheme, codes.oracle_decode(scheme, good))
                    bandwidth += sum(s not in failed for _, s in corrupt)
                    order = stripe.node_order
                    for s in sorted(rewrite, key=order.__getitem__):
                        ids, fname = rewrite[s], _node_file(name, stripe.index, order[s])
                        with self._write_file([fname], whole=ids is None) as write:
                            for rank, block_id in enumerate(geo.blocks_on[s]):
                                if ids is not None and block_id not in ids:
                                    continue
                                body = good[block_id]
                                if _crc(body) != stripe.crc32[block_id]:
                                    raise codes.InconsistentStripeError(
                                        f"repaired block {block_id} fails its CRC"
                                    )
                                write(fname, rank * size, body)
                    plans += 1
            if fatal is not None:
                raise FatalStripeError(fatal)

            # every down node now holds its blocks again
            log.info("repair: nodes %s are back up", sorted(down))
            self._save_config(set())
            return RepairResult(plans, bandwidth)
