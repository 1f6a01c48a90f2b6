"""File-backed striped block store with fault injection, fsck, and repair.

Tree layout::

    root/store.json             store config and the set of down nodes
    root/.lock                  taken by every mutating operation
    root/n<k>/                  one directory per simulated node
    root/<name>.manifest.json   one manifest per stored file
    n<k>/<name>.s<stripe>_b<block>_r<copy>.blk   block replica files

Stripes are numbered from 0 within each file, whose name prefixes its block
files, so puts share no counter and no block file.  CRC32 (IEEE polynomial)
of every replica is recorded in the manifest as 8 hex characters.  Killing a
node wipes its directory, which forces real repair traffic instead of
replica re-registration.

Three helpers, ``_read_file``, ``_write_file`` and ``_remove_files``, are the
only code that opens or removes a block file; ``store.json`` and the
manifests are read through ``_read_file`` too.  Every JSON file is written
compact (no indent, so ``json`` uses its C encoder) to a temp file and
renamed over its target.  The commit points are ``store.json`` for ``create``, the manifest for ``put``,
and the last ``store.json`` write for ``repair``, which marks nodes up only
after their blocks are written.  A write that fails earlier leaves at most
block files that no manifest names.  Nothing is fsynced.

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
    files: list[str]
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
                            "files": b.files,
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
        stripes = [
            StripeRecord(
                index=s["index"],
                node_order=list(s["node_order"]),
                blocks=[
                    BlockRecord(b["block"], b["role"], list(b["nodes"]), list(b["files"]), b["crc32"])
                    for b in s["blocks"]
                ],
            )
            for s in d["stripes"]
        ]
        return cls(d["file"], d["size"], d["scheme"], d["block_size"], stripes)


@dataclass
class FsckReport:
    missing: list[tuple[str, int, int, int]] = field(default_factory=list)
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


def _write_json(path: Path, obj: dict) -> None:
    """Write *obj* to a temp file and rename it over *path*."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


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
        text = self._read_file("store.json")
        if text is None:
            raise StoreError(f"no store at {self.root}")
        return json.loads(text)

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
        text = self._read_file(f"{name}.manifest.json")
        if text is None:
            raise StoreError(f"no such stored file: {name}")
        return StoreManifest.from_dict(json.loads(text))

    def manifests(self) -> list[StoreManifest]:
        with os.scandir(self._root) as entries:
            names = sorted(e.name for e in entries if e.name.endswith(".manifest.json"))
        return [StoreManifest.from_dict(json.loads(self._read_file(n))) for n in names]

    # -- block files --------------------------------------------------------
    # The only code that opens or removes a block file; *fname* is the
    # root-relative name a BlockRecord keeps.  store.json and the manifests
    # are read through _read_file too.

    def _read_file(self, fname: str) -> bytes | None:
        """The file's bytes, or None when it does not exist.  Unbuffered:
        the file is read whole, so a buffer would only add a copy."""
        try:
            with open(f"{self._root}/{fname}", "rb", buffering=0) as fh:
                return fh.readall()
        except (FileNotFoundError, NotADirectoryError):
            return None

    def _write_file(self, fname: str, body: bytes) -> None:
        with open(f"{self._root}/{fname}", "wb") as fh:
            fh.write(body)

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

        Scheme and block size default to the store's configuration but may
        vary per file; each manifest records its own.  The manifest's rename
        commits the file.  A put that fails before it may leave block files
        that no manifest names; a retry of the same name overwrites them.
        """
        path = Path(path)
        if name is None:
            name = path.name
        # a manifest is root/<name>.manifest.json: no other directory
        if name in ("", ".", "..") or "/" in name or "\0" in name:
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
            data = path.read_bytes()
            D = scheme.data_block_count
            stripe_bytes = D * block_size
            n_stripes = -(-len(data) // stripe_bytes) if data else 0
            stripes: list[StripeRecord] = []
            for k in range(n_stripes):
                chunk = data[k * stripe_bytes : (k + 1) * stripe_bytes]
                chunk = chunk.ljust(stripe_bytes, b"\0")
                layout_seed = zlib.crc32(f"{self.seed}:{name}:{k}".encode())
                layout = codes.build_layout(scheme, pool, layout_seed)
                payload = [
                    chunk[i * block_size : (i + 1) * block_size] for i in range(D)
                ]
                encoded = codes.encode_stripe(scheme, payload)
                records = []
                for block_id in sorted(encoded):
                    body = encoded[block_id]
                    nodes = list(layout.replicas(block_id))
                    files = []
                    for copy, node in enumerate(nodes):
                        fname = f"n{node}/{name}.s{k}_b{block_id}_r{copy}.blk"
                        self._write_file(fname, body)
                        files.append(fname)
                    role = layout.block_roles[block_id].as_string()
                    records.append(BlockRecord(block_id, role, nodes, files, _crc(body)))
                stripes.append(StripeRecord(k, list(layout.node_order), records))
            manifest = StoreManifest(name, len(data), scheme.name, block_size, stripes)
            _write_json(self._manifest_path(name), manifest.to_dict())
            return manifest

    # -- read path ----------------------------------------------------------

    def _scan(self, stripe: StripeRecord, keep: bool) -> tuple[dict, list]:
        """Read every replica of the stripe once.  Returns each good replica
        by (block id, node), with its bytes when *keep* is set and None
        otherwise, and each bad replica as (record, node, file, corrupt),
        both in manifest order; a replica on a down node is missing without
        being read.  Dropping the bytes of a scan that does not need them
        lets each read reuse the memory of the one before."""
        good, bad = {}, []
        for record in stripe.blocks:
            for node, fname in zip(record.nodes, record.files):
                body = None if node in self._down else self._read_file(fname)
                if body is not None and _crc(body) == record.crc32:
                    good[record.block_id, node] = body if keep else None
                else:
                    bad.append((record, node, fname, body is not None))
        return good, bad

    def _stripe_reader(self, stripe: StripeRecord, excluded_nodes: set[int]):
        """Block accessor over the stripe's replicas: returns the first
        replica that passes its CRC, skipping down or *excluded_nodes*,
        missing files and corrupt copies.  Raises ChecksumMismatchError when
        only corrupt replicas remain, MissingBlockError when none is left."""
        by_id = {b.block_id: b for b in stripe.blocks}

        def reader(block_id: int) -> bytes:
            record = by_id.get(block_id)
            if record is None:
                raise MissingBlockError(f"unknown block {block_id}")
            corrupt = None
            for node, fname in zip(record.nodes, record.files):
                if node in self._down or node in excluded_nodes:
                    continue
                body = self._read_file(fname)
                if body is None:
                    continue
                if _crc(body) == record.crc32:
                    return body
                corrupt = fname
            if corrupt is not None:
                raise ChecksumMismatchError(f"{corrupt} failed its CRC check")
            raise MissingBlockError(f"no live replica of block {block_id}")

        return reader

    def get(self, name: str) -> bytearray:
        """Reassemble a stored file; blocks with no good replica are served
        through degraded-read plans and each executed plan's bandwidth is
        logged.  A plan also rebuilds the other blocks its solve determines,
        and those are kept for the rest of the stripe."""
        manifest = self.load_manifest(name)
        scheme = parse_scheme(manifest.scheme)
        # sized up front: growing it block by block reallocates and can leave
        # the outgrown buffers resident
        out = bytearray(manifest.stripe_count * scheme.data_block_count * manifest.block_size)
        pos = 0
        for stripe in manifest.stripes:
            slot_of = {node: s for s, node in enumerate(stripe.node_order)}
            down_slots = {
                slot_of[n] for n in stripe.node_order if n in self._down
            }
            data_records = sorted(
                (b for b in stripe.blocks if b.role.startswith("data:")),
                key=lambda b: int(b.role.split(":")[1]),
            )
            reader = self._stripe_reader(stripe, set())
            rebuilt: dict[int, bytes] = {}
            for record in data_records:
                try:
                    body = reader(record.block_id)
                    out[pos : pos + len(body)] = body
                    pos += len(body)
                    continue
                except (MissingBlockError, ChecksumMismatchError):
                    pass  # no good replica left: decode it from the stripe
                if record.block_id not in rebuilt:
                    bad_slots = {slot_of[node] for node in record.nodes}
                    plan = codes.plan_degraded_read(
                        scheme, record.block_id, down_slots | bad_slots
                    )
                    rebuilt.update(codes.execute_plan(plan, reader))
                    self.degraded_log.append(
                        (name, stripe.index, record.block_id, plan.bandwidth_blocks)
                    )
                    log.info(
                        "degraded read: %s stripe %d block %d via %d transfers",
                        name, stripe.index, record.block_id, plan.bandwidth_blocks,
                    )
                body = rebuilt[record.block_id]
                if _crc(body) != record.crc32:
                    raise ChecksumMismatchError(
                        f"degraded read of block {record.block_id} failed its CRC check"
                    )
                out[pos : pos + len(body)] = body
                pos += len(body)
        del out[manifest.size :]  # trim in place: slicing would copy twice
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
        """Read-only scan: missing replicas, CRC failures, fatal stripes."""
        report = FsckReport()
        for manifest in self.manifests():
            scheme = parse_scheme(manifest.scheme)
            for stripe in manifest.stripes:
                good, bad = self._scan(stripe, keep=False)
                for record, node, _, corrupt in bad:
                    (report.corrupt if corrupt else report.missing).append(
                        (manifest.name, stripe.index, record.block_id, node)
                    )
                if not codes.can_decode_from(scheme, {block_id for block_id, _ in good}):
                    report.fatal_stripes.append((manifest.name, stripe.index))
        return report

    def repair(self) -> RepairResult:
        """Restore every damaged stripe, then bring the down nodes back up.

        Measured bandwidth is the sum of the executed plans' transfer
        counts.  Each damaged stripe is rebuilt from the bytes its scan read
        and written back before the next is scanned.  A stripe that cannot
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
                    good, bad = self._scan(stripe, keep=True)
                    if not bad:
                        continue
                    if not codes.can_decode_from(scheme, {block_id for block_id, _ in good}):
                        fatal = fatal or f"{manifest.name} stripe {stripe.index} is unrecoverable"
                        continue
                    # the plan reads what _stripe_reader(stripe, damaged) would:
                    # each block's first good replica off the damaged nodes
                    damaged = {node for _, node, _, _ in bad}
                    sources: dict[int, bytes] = {}
                    for (block_id, node), body in good.items():
                        if node not in damaged:
                            sources.setdefault(block_id, body)
                    slot_of = {node: s for s, node in enumerate(stripe.node_order)}
                    plan = codes.plan_repair(scheme, frozenset(slot_of[n] for n in damaged))
                    recovered = codes.execute_plan(plan, _source_reader(sources))
                    for record, _, fname, _ in bad:
                        body = recovered[record.block_id]
                        if _crc(body) != record.crc32:
                            raise codes.InconsistentStripeError(
                                f"repaired block {record.block_id} fails its CRC"
                            )
                        self._write_file(fname, body)
                    plans += 1
                    bandwidth += plan.bandwidth_blocks
            if fatal is not None:
                raise FatalStripeError(fatal)

            # every down node now holds its blocks again
            log.info("repair: nodes %s are back up", sorted(self._down))
            self._down.clear()
            self._save_config()
            return RepairResult(plans, bandwidth)
