import ast
import builtins
import errno
import io
import itertools
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import traceback
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from polycode import blockstore, cli, codes
from polycode.blockstore import BlockStore, FatalStripeError, StoreError
from polycode.codes import HeptagonLocal, Polygon, RaidMirror, Replication, UnrecoverableError

from helpers import created_files, degraded_reads

BS = 1024  # small blocks keep the unit suite fast; acceptance covers 4 MiB


@pytest.fixture
def pentagon_store(tmp_path):
    store = BlockStore.create(tmp_path / "store", Polygon(5), nodes=5, block_size=BS, seed=7)
    return store


def write_file(tmp_path, size, seed=0, name="data.bin"):
    path = tmp_path / name
    path.write_bytes(random.Random(seed).randbytes(size))
    return path


def hosts(manifest, stripe, block_id) -> list[int]:
    """The nodes that hold a block's replicas, in replica order."""
    geo = codes._geometry(codes.parse_scheme(manifest.scheme))
    return [stripe.node_order[s] for s in geo.placements[block_id]]


def replica(store, manifest, stripe, block_id, node) -> tuple[Path, int]:
    """The node file that holds a replica, and the replica's offset in it:
    a node's blocks of a stripe follow each other in block-id order from
    the stripe's offset."""
    held = [b for b in range(len(stripe.crc32)) if node in hosts(manifest, stripe, b)]
    path = store.root / f"n{node}" / "blocks.blk"
    return path, stripe.offset + held.index(block_id) * manifest.block_size


def overwrite(path: Path, offset: int, data: bytes) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def test_create_validates(tmp_path):
    with pytest.raises(StoreError):
        BlockStore.create(tmp_path / "s1", Polygon(5), nodes=4, block_size=BS, seed=0)
    with pytest.raises(StoreError):
        BlockStore.create(tmp_path / "s2", Polygon(5), nodes=5, block_size=0, seed=0)
    BlockStore.create(tmp_path / "s3", Polygon(5), nodes=5, block_size=BS, seed=0)
    with pytest.raises(StoreError):
        BlockStore.create(tmp_path / "s3", Polygon(5), nodes=5, block_size=BS, seed=0)


def test_put_get_roundtrip_exact_stripe(pentagon_store, tmp_path):
    # 9 data blocks * BS bytes == exactly one stripe -> 20 replicas in 5
    # node files of 4 blocks each
    path = write_file(tmp_path, 9 * BS, seed=1)
    manifest = pentagon_store.put(path)
    assert manifest.stripe_count == 1
    files = sorted(pentagon_store.root.glob("n*/*.blk"))
    assert [str(f.relative_to(pentagon_store.root)) for f in files] == [
        f"n{node}/blocks.blk" for node in range(5)
    ]
    assert all(f.stat().st_size == 4 * BS for f in files)
    assert pentagon_store.get("data.bin") == path.read_bytes()


def test_one_stripe_pentagon_put_creates_five_block_files(pentagon_store, tmp_path,
                                                          monkeypatch):
    src = write_file(tmp_path, 9 * BS, seed=1)
    with created_files(monkeypatch) as created:
        pentagon_store.put(src)
    assert sorted(f for f in created if f.endswith(".blk")) == [
        f"{pentagon_store.root}/n{node}/blocks.blk" for node in range(5)
    ]  # 20 at one file per replica
    assert pentagon_store.get("data.bin") == src.read_bytes()


@pytest.mark.parametrize("killed", [(), (3,), (0, 4)])
def test_only_a_node_without_its_file_gets_one_created(pentagon_store, tmp_path, monkeypatch,
                                                       killed):
    """Once every node holds its file, a put creates no block file, and a
    repair creates one per killed node, not one per damaged stripe."""
    first = write_file(tmp_path, 9 * BS, seed=1, name="first.bin")
    pentagon_store.put(first)
    second = write_file(tmp_path, 3 * 9 * BS - 5, seed=2, name="second.bin")
    with created_files(monkeypatch) as created:
        pentagon_store.put(second)
    assert [f for f in created if f.endswith(".blk")] == []  # 15 at a file per node and stripe
    for node in killed:
        pentagon_store.kill_node(node)
    with created_files(monkeypatch) as created:
        assert pentagon_store.repair().plans_executed == 4 * bool(killed)
    assert sorted(f for f in created if f.endswith(".blk")) == [
        f"{pentagon_store.root}/n{node}/blocks.blk" for node in killed]
    assert pentagon_store.fsck().is_clean
    for src in (first, second):
        assert pentagon_store.get(src.name) == src.read_bytes()


def test_put_pads_partial_stripe(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS + 137, seed=2)
    manifest = pentagon_store.put(path)
    assert manifest.stripe_count == 2
    assert manifest.size == 9 * BS + 137
    assert pentagon_store.get("data.bin") == path.read_bytes()


def test_empty_file(pentagon_store, tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    manifest = pentagon_store.put(path)
    assert manifest.stripe_count == 0
    assert pentagon_store.get("empty.bin") == b""


def test_put_twice_rejected(pentagon_store, tmp_path):
    path = write_file(tmp_path, BS)
    pentagon_store.put(path)
    with pytest.raises(StoreError):
        pentagon_store.put(path)


def test_manifest_schema(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=3)
    pentagon_store.put(path)
    raw = json.loads((pentagon_store.root / "data.bin.manifest.json").read_text())
    assert raw["file"] == "data.bin"
    assert raw["size"] == 9 * BS
    assert raw["scheme"] == "pentagon"
    assert raw["block_size"] == BS
    assert raw["stripe_count"] == 1
    (stripe,) = raw["stripes"]
    assert set(stripe) == {"offset", "node_order", "crc32"}
    assert stripe["offset"] == 0 and stripe["node_order"] == [0, 1, 2, 3, 4]
    assert len(stripe["crc32"]) == 10
    for crc in stripe["crc32"]:
        assert len(crc) == 8
        int(crc, 16)
    geo = codes._geometry(Polygon(5))
    for block_id, slots in geo.placements.items():  # a file for every (slot, block)
        for slot in slots:
            node = stripe["node_order"][slot]
            assert (pentagon_store.root / f"n{node}/blocks.blk").exists()
    roles = [geo.roles[b].as_string() for b in range(len(stripe["crc32"]))]
    assert roles.count("local_parity:0") == 1
    size = (pentagon_store.root / "data.bin.manifest.json").stat().st_size
    assert size <= 260  # 759 when each block record named its role and nodes


def test_kill_revive_cycle(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=4)
    pentagon_store.put(path)
    state = pentagon_store.kill_node(1)
    assert state.status == "down"
    assert list(state.path.glob("*.blk")) == []
    # double kill is idempotent
    assert pentagon_store.kill_node(1).status == "down"
    state = pentagon_store.revive_node(1)
    assert state.status == "up"
    assert list(state.path.glob("*.blk")) == []
    with pytest.raises(StoreError):
        pentagon_store.kill_node(99)


def test_fsck_reports(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=5)
    manifest = pentagon_store.put(path)
    assert pentagon_store.fsck().is_clean

    pentagon_store.kill_node(0)
    report = pentagon_store.fsck()
    assert report.missing == [0]  # node 0's one file, of its 4 replicas
    assert not report.corrupt and not report.fatal_stripes

    pentagon_store.revive_node(0)
    pentagon_store.repair()
    # flip one byte of one replica
    stripe = manifest.stripes[0]
    node = hosts(manifest, stripe, 2)[0]
    target, offset = replica(pentagon_store, manifest, stripe, 2, node)
    body = bytearray(target.read_bytes())
    body[offset + 10] ^= 0xFF
    target.write_bytes(bytes(body))
    report = pentagon_store.fsck()
    assert report.corrupt == [("data.bin", 0, 2, node)]
    assert not report.missing and not report.fatal_stripes


def test_fsck_opens_each_replica_once_without_a_stat(pentagon_store, tmp_path, monkeypatch):
    pentagon_store.put(write_file(tmp_path, 9 * BS, seed=5))
    pentagon_store.put(write_file(tmp_path, 2 * 9 * BS, seed=6, name="more.bin"))
    opened, statted = Counter(), Counter()
    real_open, real_os_open, real_stat = builtins.open, os.open, os.stat

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".blk"):
            opened[file] += 1
        return real_open(file, *args, **kwargs)

    def counting_os_open(path, *args, **kwargs):
        if str(path).endswith(".blk"):
            opened[path] += 1
        return real_os_open(path, *args, **kwargs)

    def counting_stat(path, *args, **kwargs):
        if str(path).endswith(".blk"):
            statted[os.path.basename(path)] += 1
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # pathlib opens through io.open
    monkeypatch.setattr(os, "open", counting_os_open)
    monkeypatch.setattr(os, "stat", counting_stat)  # Path.exists and os.path.exists
    assert pentagon_store.fsck().is_clean
    # each node file once, which holds 4 replicas of each of the 3 stripes:
    # 60 opens at one file a replica, 15 at one a node and stripe
    assert len(opened) == 5 and set(opened.values()) == {1}
    assert not statted


def test_a_stripe_read_opens_each_node_file_once(pentagon_store, tmp_path, monkeypatch):
    src = write_file(tmp_path, 9 * BS, seed=8)
    pentagon_store.put(src)
    opened = Counter()
    real_os_open = os.open

    def counting_os_open(path, *args, **kwargs):
        if str(path).endswith(".blk"):
            opened[os.path.basename(os.path.dirname(path))] += 1
        return real_os_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_os_open)
    assert pentagon_store.get("data.bin") == src.read_bytes()
    # the 9 data blocks' first hosts, slots 0-2: 9 opens at one a block
    assert opened == {"n0": 1, "n1": 1, "n2": 1}
    for node in (0, 1):
        pentagon_store.kill_node(node)
    opened.clear()
    assert pentagon_store.get("data.bin") == src.read_bytes()
    # the served blocks, the probe for missing files and the plan's sources
    # share one descriptor a node file, a missing one tried once: 36 opens
    # when each read opened its own
    assert opened == {f"n{k}": 1 for k in range(5)}


def test_repair_opens_each_live_replica_once(pentagon_store, tmp_path, monkeypatch):
    src = write_file(tmp_path, 9 * BS, seed=6)
    pentagon_store.put(src)
    pentagon_store.kill_node(0)
    read, written = Counter(), Counter()
    real_open, real_os_open = builtins.open, os.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file).endswith(".blk"):
            (written if "w" in mode else read)[os.path.basename(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    def counting_os_open(path, flags, *args, **kwargs):
        if str(path).endswith(".blk"):
            (written if flags & os.O_WRONLY else read)[path] += 1
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(os, "open", counting_os_open)
    assert pentagon_store.repair().plans_executed == 1
    # the 4 node files off node 0, holding 16 replicas, each once: the plan
    # runs from the scan's bytes; node 0's file is tried once, and its
    # absence is what marks the slot lost
    assert len(read) == 5 and set(read.values()) == {1}
    assert list(written) == [f"{pentagon_store.root}/n0/blocks.blk"]
    assert set(written.values()) == {1}
    monkeypatch.undo()
    assert pentagon_store.fsck().is_clean
    assert pentagon_store.get("data.bin") == src.read_bytes()


def test_block_files_are_opened_and_removed_by_three_helpers_only():
    """Each function of the module that opens, removes or lists files, and
    what it calls to do so.  Besides the three block-file helpers (and the
    reads and writes they hand out on the descriptors they open) only the
    JSON reader and writer, the lock and put's read of its input file touch
    a file."""
    calls = {}
    for fn in ast.walk(ast.parse(Path(blockstore.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                name = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
                if re.fullmatch(r"open|os\.\w+|.*\.(unlink|open|glob|iterdir|(read|write)_(bytes|text))",
                                name):
                    calls.setdefault(fn.name, set()).add(name)
    assert calls == {
        "_read_json": {"open"},
        "_write_json": {"open", "os.replace"},
        "_locked": {"open"},
        "_read_file": {"os.open", "os.pread", "os.preadv", "os.close"},
        "read": {"os.open", "os.pread", "os.preadv"},
        "_write_file": {"os.open", "os.pwrite", "os.close"},
        "write": {"os.open", "os.pwrite"},
        "_remove_files": {"os.scandir", "os.unlink"},
        "manifests": {"os.scandir"},
        "put": {"open"},
    }


def test_the_store_rebuilds_blocks_only_through_plans():
    """The store calls into ``codes`` only for the geometry, encoding, the
    repair planner, whose refusal is also fsck's verdict, plan execution,
    the stripe reader that plans its degraded reads and the stripe check
    that ``code decode``'s reader makes, raising its errors aside; every
    transfer it counts is a plan's bandwidth."""
    tree = ast.parse(Path(blockstore.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "codes"
                for alias in node.names}
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.startswith("codes."):
                called.add(name[len("codes."):])
            elif name in imported:
                called.add(name)
    errors = {n for n in called if isinstance(getattr(codes, n), type)
              and issubclass(getattr(codes, n), codes.CodeError)}
    assert called - errors <= {
        "_geometry", "build_layout", "parse_scheme", "StripeEncoder",
        "plan_repair", "execute_plan", "memory_reader", "read_stripe", "check_stripe",
    }
    counts = [node for node in ast.walk(tree) if isinstance(node, ast.AugAssign)
              and ast.unparse(node.target) in ("bandwidth", "self.degraded_transfers")]
    assert len(counts) == 2
    assert all(ast.unparse(node.value).endswith(".bandwidth_blocks") for node in counts)


def test_kill_and_revive_read_one_node_state(pentagon_store, monkeypatch):
    """kill and revive read only the node they name from store.json, so
    their time does not grow with the node count: with 2**40 nodes recorded
    and the node list off limits, each answers at once."""
    path = pentagon_store.root / "store.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), nodes=2**40)))
    store = BlockStore(pentagon_store.root)
    monkeypatch.setattr(BlockStore, "nodes", lambda self: pytest.fail("every node was built"))
    for node in (2**40 - 1, 1):
        assert store.kill_node(node) == blockstore.NodeState(node, "down", store.node_dir(node))
        assert store.revive_node(node).status == "up"
    with pytest.raises(StoreError, match="^unknown node"):
        store.kill_node(2**40)


def test_kill_removes_orphan_block_files(pentagon_store, tmp_path):
    pentagon_store.put(write_file(tmp_path, 9 * BS, seed=3))
    orphan = pentagon_store.node_dir(2) / "gone.bin.s0_b0_r0.blk"  # a failed put's
    orphan.write_bytes(b"x")
    keep = pentagon_store.node_dir(2) / "notes.txt"
    keep.write_bytes(b"y")
    pentagon_store.kill_node(2)
    assert sorted(p.name for p in pentagon_store.node_dir(2).iterdir()) == ["notes.txt"]
    for f in pentagon_store.node_dir(3).iterdir():  # a node directory that is gone
        f.unlink()
    pentagon_store.node_dir(3).rmdir()
    assert pentagon_store.kill_node(3).status == "down"


def test_fsck_reads_deleted_replica_as_missing_and_flipped_byte_as_corrupt(
    pentagon_store, tmp_path
):
    manifest = pentagon_store.put(write_file(tmp_path, 9 * BS, seed=5))
    stripe = manifest.stripes[0]
    gone = hosts(manifest, stripe, 1)[0]
    flipped = next(b for b in range(len(stripe.crc32)) if gone not in hosts(manifest, stripe, b))
    node = hosts(manifest, stripe, flipped)[1]
    (pentagon_store.root / f"n{gone}/blocks.blk").unlink()  # its node stays up
    target, offset = replica(pentagon_store, manifest, stripe, flipped, node)
    body = bytearray(target.read_bytes())
    body[offset] ^= 0x01
    target.write_bytes(bytes(body))
    report = pentagon_store.fsck()
    assert report.missing == [gone]
    assert report.corrupt == [("data.bin", 0, flipped, node)]
    assert not report.fatal_stripes
    assert pentagon_store.get("data.bin") == (tmp_path / "data.bin").read_bytes()


def test_fsck_reads_replicas_a_short_file_cuts_off_as_corrupt(pentagon_store, tmp_path):
    src = write_file(tmp_path, 9 * BS, seed=15)
    manifest = pentagon_store.put(src)
    stripe = manifest.stripes[0]
    target = pentagon_store.root / "n3/blocks.blk"
    held = sorted(b for b in range(len(stripe.crc32)) if 3 in hosts(manifest, stripe, b))
    with open(target, "r+b") as fh:
        fh.truncate(2 * BS + 100)  # keeps two replicas whole and cuts the third
    report = pentagon_store.fsck()
    assert report.corrupt == [("data.bin", 0, b, 3) for b in held[2:]]
    assert not report.missing and not report.fatal_stripes
    assert pentagon_store.get("data.bin") == src.read_bytes()
    assert pentagon_store.repair().plans_executed == 1
    assert target.stat().st_size == 4 * BS
    assert pentagon_store.fsck().is_clean


def test_a_put_after_a_kill_and_a_revive_is_repaired_with_the_rest(pentagon_store, tmp_path):
    """A revived node is empty: a put creates its file afresh, its bytes
    before the new run a hole, which fsck reads as corrupt replicas of the
    older stripes, and which repair fills in."""
    first = write_file(tmp_path, 2 * 9 * BS - 7, seed=50, name="first.bin")
    pentagon_store.put(first)
    pentagon_store.kill_node(2)
    pentagon_store.revive_node(2)
    second = write_file(tmp_path, 9 * BS, seed=51, name="second.bin")
    assert pentagon_store.put(second).stripes[0].offset == 8 * BS
    report = pentagon_store.fsck()
    assert not report.missing and not report.fatal_stripes
    assert Counter((name, k, node) for name, k, _, node in report.corrupt) == {
        ("first.bin", 0, 2): 4, ("first.bin", 1, 2): 4}
    assert pentagon_store.repair().plans_executed == 2
    assert pentagon_store.fsck().is_clean
    for src in (first, second):
        assert pentagon_store.get(src.name) == src.read_bytes()


def test_node_files_cut_short_are_repaired_past_a_later_put(pentagon_store, tmp_path):
    """Every node file cut one block short loses each node's last replica
    of the stripe, block 9 on both its hosts.  A put placed by the files'
    sizes would land on the cut range; the next_offset mark keeps it past
    the stripe's runs, so repair restores both files."""
    first = write_file(tmp_path, 9 * BS, seed=52, name="first.bin")
    manifest = pentagon_store.put(first)
    stripe = manifest.stripes[0]
    for node in range(5):
        os.truncate(pentagon_store.root / f"n{node}/blocks.blk", 3 * BS)
    cut = [(b, node) for node in range(5) for b in range(10)
           if node in hosts(manifest, stripe, b)
           and replica(pentagon_store, manifest, stripe, b, node)[1] == 3 * BS]
    assert cut == [(3, 0), (6, 1), (8, 2), (9, 3), (9, 4)]
    report = pentagon_store.fsck()
    assert report.corrupt == [("first.bin", 0, b, node) for b, node in cut]
    assert not report.missing and not report.fatal_stripes
    second = write_file(tmp_path, 9 * BS, seed=53, name="second.bin")
    assert pentagon_store.put(second).stripes[0].offset == 4 * BS
    assert pentagon_store.repair().plans_executed == 1
    assert pentagon_store.fsck().is_clean
    for src in (first, second):
        assert pentagon_store.get(src.name) == src.read_bytes()


def test_a_manifest_in_the_per_stripe_layout_is_refused_by_name(pentagon_store, tmp_path):
    pentagon_store.put(write_file(tmp_path, 2 * 9 * BS, seed=54))
    path = pentagon_store.root / "data.bin.manifest.json"
    raw = json.loads(path.read_text())
    for k, stripe in enumerate(raw["stripes"]):  # as the per-stripe layout recorded it
        stripe.pop("offset")
        stripe["index"] = k
    path.write_text(json.dumps(raw))
    message = (f"^{re.escape(str(path))} is in the per-stripe layout"
               r" \(n<k>/<name>\.s<i>\.blk\), which this store does not read$")
    for command in (lambda: pentagon_store.get("data.bin"), pentagon_store.fsck,
                    pentagon_store.repair):
        with pytest.raises(StoreError, match=message):
            command()


@pytest.mark.parametrize("offset", [-1, -4096, 1.5, "0", None, True, [0], 2**62 + 1, "gone"])
def test_an_offset_that_is_not_a_non_negative_integer_is_refused_by_name(pentagon_store,
                                                                         tmp_path, offset):
    pentagon_store.put(write_file(tmp_path, 9 * BS, seed=55))
    path = pentagon_store.root / "data.bin.manifest.json"
    raw = json.loads(path.read_text())
    if offset == "gone":
        del raw["stripes"][0]["offset"]
    else:
        raw["stripes"][0]["offset"] = offset
    path.write_text(json.dumps(raw))
    message = (f"^{re.escape(str(path))} is malformed: stripe 0 has an offset that is not an"
               f" integer in 0..{2**62}$")
    for command in (lambda: pentagon_store.get("data.bin"), pentagon_store.fsck,
                    pentagon_store.repair):
        with pytest.raises(StoreError, match=message):
            command()


@pytest.mark.parametrize("text", [None, b"", b"12\n", b"%020d" % 0, b"%020d\n\n" % 0,
                                  b"%020d\n" % (2**62 + 1), b"-%019d\n" % 1])
def test_a_next_offset_mark_that_is_gone_or_malformed_stops_a_put(pentagon_store, tmp_path,
                                                                   text):
    """A put refuses a mark that is gone or is not 20 digits of an offset
    and a newline, by name, before it writes a block; fsck finds the blocks
    whole and reports the mark."""
    kept = write_file(tmp_path, 9 * BS, seed=56, name="kept.bin")
    pentagon_store.put(kept)
    mark = pentagon_store.root / "next_offset"
    assert mark.read_bytes() == b"%020d\n" % (4 * BS)
    if text is None:
        mark.unlink()
    else:
        mark.write_bytes(text)
    blocks = {p: p.read_bytes() for p in pentagon_store.root.glob("n*/*.blk")}
    detail = "missing" if text is None else "malformed"
    with pytest.raises(StoreError, match=f"^{re.escape(str(mark))} is {detail}"):
        pentagon_store.put(write_file(tmp_path, 9 * BS, seed=57, name="new.bin"))
    assert {p: p.read_bytes() for p in pentagon_store.root.glob("n*/*.blk")} == blocks
    report = pentagon_store.fsck()
    assert report.missing == report.corrupt == report.fatal_stripes == []
    assert report.mark.startswith(f"{mark} is {detail}")
    assert pentagon_store.get("kept.bin") == kept.read_bytes()


@pytest.mark.parametrize("text", [None, b"12\n", b"%020d\n" % 0, b"%020d\n" % (9 * BS),
                                  b"%020d\n\n" % (4 * BS)])
def test_repair_mends_a_next_offset_mark_that_is_gone_malformed_or_behind(pentagon_store,
                                                                         tmp_path, text):
    """repair sets a mark that is gone, malformed or behind the end of the
    furthest run a manifest names to that end, and leaves a valid mark past
    it as it is; the next put then writes past every stored run.  A mark
    set to 0 let that put write over kept.bin's runs."""
    kept = write_file(tmp_path, 9 * BS, seed=58, name="kept.bin")
    pentagon_store.put(kept)
    mark = pentagon_store.root / "next_offset"
    end = mark.read_bytes()
    assert end == b"%020d\n" % (4 * BS)
    if text is None:
        mark.unlink()
    else:
        mark.write_bytes(text)
    assert pentagon_store.repair() == blockstore.RepairResult(0, 0)
    assert mark.read_bytes() == (text if text == b"%020d\n" % (9 * BS) else end)
    new = write_file(tmp_path, 9 * BS, seed=59, name="new.bin")
    pentagon_store.put(new)
    assert pentagon_store.fsck().is_clean
    assert pentagon_store.get("kept.bin") == kept.read_bytes()
    assert pentagon_store.get("new.bin") == new.read_bytes()


def test_a_refused_damage_is_planned_once_store_wide(tmp_path, monkeypatch):
    """Nodes 0, 1 and 2 lost together are fatal to every pentagon stripe:
    fsck and then repair of 50 one-stripe files make one elimination
    between them, and each refusal is a new exception with one message."""
    store = BlockStore.create(tmp_path / "s", Polygon(5), nodes=5, block_size=16, seed=7)
    for i in range(50):
        store.put(write_file(tmp_path, 9 * 16 - i, seed=i, name=f"f{i:02d}.bin"))
    for node in (0, 1, 2):
        store.kill_node(node)
    builds = []

    class Counting(codes._PlanBuilder):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(codes, "_PlanBuilder", Counting)
    codes._repair_plan.cache_clear()
    report = store.fsck()
    assert len(report.fatal_stripes) == 50 and report.missing == [0, 1, 2]
    with pytest.raises(FatalStripeError, match=r"^f00\.bin stripe 0 is unrecoverable$"):
        store.repair()
    assert len(builds) == 1  # 100 when a refusal was not kept
    refusals = []
    for _ in range(3):
        with pytest.raises(UnrecoverableError) as caught:
            codes.plan_repair(Polygon(5), [2, 1, 0])
        refusals.append(caught.value)
    assert len(builds) == 1 and len({id(e) for e in refusals}) == 3
    assert len({str(e) for e in refusals}) == 1 and str(refusals[0]).startswith("fatal for")
    assert len({len(traceback.extract_tb(e.__traceback__)) for e in refusals}) == 1


def test_open_errors_keep_their_messages(pentagon_store, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(StoreError, match=r"^no store at nope$"):
        BlockStore("nope")
    (tmp_path / "plain").write_text("")  # a file where the root should be
    with pytest.raises(StoreError, match=r"^no store at plain$"):
        BlockStore("plain")
    with pytest.raises(StoreError, match=r"^no such stored file: nope$"):
        pentagon_store.load_manifest("nope")
    with pytest.raises(StoreError, match=r"^no such stored file: store.json/x$"):
        pentagon_store.load_manifest("store.json/x")


def test_degraded_get_logs_three_transfers(pentagon_store, tmp_path, caplog):
    path = write_file(tmp_path, 2 * 9 * BS, seed=6)
    pentagon_store.put(path)
    pentagon_store.kill_node(0)
    pentagon_store.kill_node(1)
    caplog.set_level(logging.INFO, logger="polycode.blockstore")
    assert pentagon_store.get("data.bin") == path.read_bytes()
    # block of edge (0,1) fully lost in each stripe
    reads = degraded_reads(caplog)
    assert len(reads) == 2
    assert all(bw == 3 for *_, bw in reads)
    assert pentagon_store.degraded_transfers == 6


def test_degraded_get_plans_once_per_stripe(tmp_path, monkeypatch, caplog):
    store = BlockStore.create(tmp_path / "hl", HeptagonLocal(), nodes=15, block_size=64, seed=3)
    path = write_file(tmp_path, 3 * 40 * 64, seed=14)
    store.put(path)
    for node in (0, 1, 2):
        store.kill_node(node)
    calls = []
    real = codes.plan_degraded_read

    def counting(scheme, block_id, down, corrupt=()):
        calls.append(block_id)
        return real(scheme, block_id, down, corrupt)

    monkeypatch.setattr(codes, "plan_degraded_read", counting)
    caplog.set_level(logging.INFO, logger="polycode.blockstore")
    assert store.get("data.bin") == path.read_bytes()
    # the three lost data blocks of each stripe come from one plan
    assert [stripe for _, stripe, *_ in degraded_reads(caplog)] == [0, 1, 2]
    assert len(calls) == 3


def test_one_damage_is_planned_once_store_wide(pentagon_store, tmp_path, monkeypatch):
    """Two killed nodes damage every pentagon stripe alike, so fsck, a
    degraded get and repair over six stripes build one plan each, and
    repair takes the one fsck built."""
    path = write_file(tmp_path, 6 * 9 * BS, seed=15)
    pentagon_store.put(path)
    builds = []

    class Counting(codes._PlanBuilder):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(codes, "_PlanBuilder", Counting)
    for forget in (False, True):  # with repair's plan kept from fsck, then not
        codes._repair_plan.cache_clear()
        codes._read_plan.cache_clear()
        builds.clear()
        for node in (0, 1):
            pentagon_store.kill_node(node)
        report = pentagon_store.fsck()
        assert report.missing == [0, 1] and not report.fatal_stripes
        assert pentagon_store.get("data.bin") == path.read_bytes()  # block 0 is edge (0, 1)
        assert len(builds) == 2
        if forget:
            codes._repair_plan.cache_clear()
        assert pentagon_store.repair().plans_executed == 6
        assert len(builds) == 2 + forget
        assert pentagon_store.fsck().is_clean


def test_get_unrecoverable(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=7)
    pentagon_store.put(path)
    for node in (0, 1, 2):
        pentagon_store.kill_node(node)
    with pytest.raises(UnrecoverableError):
        pentagon_store.get("data.bin")


def test_get_falls_back_past_corrupt_replica(pentagon_store, tmp_path):
    path = write_file(tmp_path, 2 * 9 * BS, seed=12)
    manifest = pentagon_store.put(path)
    pentagon_store.kill_node(0)
    pentagon_store.kill_node(1)
    zeroed = 0
    for stripe in manifest.stripes:
        for block_id in range(len(stripe.crc32)):
            nodes = hosts(manifest, stripe, block_id)
            if 2 in nodes and {3, 4} & set(nodes):
                overwrite(*replica(pentagon_store, manifest, stripe, block_id, 2), bytes(BS))
                zeroed += 1
    assert zeroed == 4  # edges (2,3) and (2,4) in each stripe
    assert not pentagon_store.fsck().fatal_stripes
    assert pentagon_store.get("data.bin") == path.read_bytes()


def test_repair_bandwidth_matches_plans(pentagon_store, tmp_path):
    path = write_file(tmp_path, 3 * 9 * BS, seed=8)
    pentagon_store.put(path)

    pentagon_store.kill_node(3)
    result = pentagon_store.repair()
    assert result.plans_executed == 3
    assert result.bandwidth_blocks == 4 * 3  # single-failure plan per stripe
    assert pentagon_store.fsck().is_clean
    assert pentagon_store.get("data.bin") == path.read_bytes()

    pentagon_store.kill_node(0)
    pentagon_store.kill_node(4)
    result = pentagon_store.repair()
    assert result.bandwidth_blocks == 10 * 3  # double-failure plan per stripe
    assert pentagon_store.fsck().is_clean
    assert pentagon_store.get("data.bin") == path.read_bytes()


def test_repair_noop(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=9)
    pentagon_store.put(path)
    result = pentagon_store.repair()
    assert result.plans_executed == 0
    assert result.bandwidth_blocks == 0


def test_repair_fixes_corruption(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=10)
    manifest = pentagon_store.put(path)
    stripe = manifest.stripes[0]
    target, offset = replica(pentagon_store, manifest, stripe, 0, hosts(manifest, stripe, 0)[1])
    overwrite(target, offset, b"garbage" * 100)
    result = pentagon_store.repair()
    assert result.plans_executed == 1
    assert pentagon_store.fsck().is_clean
    assert pentagon_store.get("data.bin") == path.read_bytes()


@pytest.mark.parametrize("scheme,bad", [
    (Polygon(5), {0: 0, 5: 1, 7: 2}),  # block: the node of its corrupt replica
    (Polygon(5), {0: 0, 7: 2}),
    (HeptagonLocal(), {0: 0, 6: 1, 11: 2, 15: 3}),
])
def test_repair_copies_a_corrupt_replica_from_its_good_twin(tmp_path, scheme, bad):
    store = BlockStore.create(tmp_path / "s", scheme, nodes=scheme.code_length, block_size=64,
                              seed=3)
    src = write_file(tmp_path, scheme.data_block_count * 64, seed=26)
    manifest = store.put(src)
    stripe = manifest.stripes[0]
    for block_id, node in bad.items():
        overwrite(*replica(store, manifest, stripe, block_id, node), b"\xff" * 64)
    report = store.fsck()
    assert sorted(report.corrupt) == sorted(("data.bin", 0, b, n) for b, n in bad.items())
    assert not report.fatal_stripes
    assert store.get("data.bin") == src.read_bytes()
    result = store.repair()
    assert (result.plans_executed, result.bandwidth_blocks) == (1, len(bad))
    assert store.fsck().is_clean
    assert store.get("data.bin") == src.read_bytes()


def test_repair_fatal_stripe_aborts_untouched(pentagon_store, tmp_path):
    path = write_file(tmp_path, 9 * BS, seed=11)
    pentagon_store.put(path)
    for node in (0, 1, 2):
        pentagon_store.kill_node(node)
    with pytest.raises(FatalStripeError):
        pentagon_store.repair()
    # nodes remain down: the failed repair must not have revived anything
    assert {n.node_id for n in pentagon_store.nodes() if n.status == "down"} == {0, 1, 2}


def test_repair_restores_the_other_stripes_before_reporting_a_fatal_one(pentagon_store,
                                                                        tmp_path):
    kept = write_file(tmp_path, 2 * 9 * BS - 100, seed=13, name="kept.bin")
    pentagon_store.put(kept)
    lost = pentagon_store.put(write_file(tmp_path, 9 * BS, seed=14, name="lost.bin"))
    (stripe,) = lost.stripes
    pentagon_store.kill_node(0)
    for node in (1, 2):  # lost.bin now misses nodes 0, 1 and 2
        overwrite(pentagon_store.root / f"n{node}/blocks.blk", stripe.offset, bytes(4 * BS))
    with pytest.raises(FatalStripeError, match=r"^lost.bin stripe 0 is unrecoverable$"):
        pentagon_store.repair()
    store = BlockStore(pentagon_store.root)
    assert [n.status for n in store.nodes()] == ["down", "up", "up", "up", "up"]
    store.revive_node(0)
    report = store.fsck()
    # node 0's file is back with kept.bin's runs, and lost.bin's is cut off
    assert not report.missing and report.fatal_stripes == [("lost.bin", 0)]
    assert sorted(report.corrupt) == sorted(
        ("lost.bin", 0, b, node) for node in (0, 1, 2) for b in range(10)
        if node in hosts(lost, stripe, b))
    assert store.get("kept.bin") == kept.read_bytes() and store.degraded_transfers == 0


def test_roundtrip_under_every_recoverable_downset(tmp_path):
    rng = random.Random(12)
    for scheme in (Polygon(5), Replication(3), RaidMirror(3)):
        root = tmp_path / scheme.name
        nodes = scheme.code_length
        store = BlockStore.create(root, scheme, nodes=nodes, block_size=256, seed=3)
        payload = rng.randbytes(scheme.data_block_count * 256 + 99)
        src = tmp_path / f"{scheme.name}.bin"
        src.write_bytes(payload)
        store.put(src)
        t = codes.tolerance(scheme)
        for size in range(1, t + 1):
            for pattern in itertools.combinations(range(nodes), size):
                for node in pattern:
                    store.kill_node(node)
                assert store.get(src.name) == payload, (scheme.name, pattern)
                store.repair()
                assert store.fsck().is_clean


def test_heptagon_local_store_roundtrip(tmp_path):
    rng = random.Random(13)
    store = BlockStore.create(tmp_path / "hl", HeptagonLocal(), nodes=15, block_size=128, seed=5)
    payload = rng.randbytes(40 * 128)
    src = tmp_path / "hl.bin"
    src.write_bytes(payload)
    store.put(src)
    for pattern in [(0,), (14,), (0, 7), (0, 1, 14), (4, 5, 6)]:
        for node in pattern:
            store.kill_node(node)
        assert store.get("hl.bin") == payload, pattern
        result = store.repair()
        assert result.plans_executed == 1
        assert store.fsck().is_clean


@pytest.mark.parametrize("name", ["raidm-3", "heptagon-local"])
def test_repair_restores_every_kill_set_fsck_finds_recoverable(tmp_path, name):
    # whether a kill set can be recovered is decided by fsck, per stripe: a
    # RAID+m stripe draws its own layout, so a node set is not a slot pattern
    scheme = codes.parse_scheme(name)
    L = scheme.code_length
    if name == "raidm-3":  # every kill set
        kill_sets = [c for k in range(1, L + 1) for c in itertools.combinations(range(L), k)]
    else:  # every kill set of up to 3 nodes survives; sample 4 and 5
        rng = random.Random(name)
        kill_sets = [tuple(rng.sample(range(L), k)) for k in (4, 5) for _ in range(70)]
    template = tmp_path / "template"
    store = BlockStore.create(template, scheme, nodes=L, block_size=64, seed=9)
    src = write_file(tmp_path, 3 * scheme.data_block_count * 64 - 5, seed=9)
    store.put(src)
    payload = src.read_bytes()
    recoverable = 0
    for kills in kill_sets:
        root = tmp_path / "case"
        shutil.copytree(template, root)
        store = BlockStore(root)
        for node in kills:
            store.kill_node(node)
        if not store.fsck().fatal_stripes:
            recoverable += 1
            assert store.get(src.name) == payload, kills
            store.repair()
            assert store.fsck().is_clean, kills
        shutil.rmtree(root)
    assert recoverable > 100


# the transfers of the degraded read and of the repair: one solve over the
# lost blocks sends, for each good parity row it picks less the known data
# the row covers, one partial parity from each slot that holds its terms;
# repair also copies each replica on a down slot from its good twin and the
# solved blocks on to their other hosts
LOST_ON_LIVE_SLOTS = {"pentagon": (4, 8), "heptagon": (6, 12), "heptagon-local": (16, 27)}


@pytest.mark.parametrize("name,down,lost", [  # down slots; the slots of a block lost on both
    ("pentagon", (0,), (1, 2)),
    ("heptagon", (0,), (1, 2)),
    ("heptagon-local", (0, 1), (2, 3)),
])
def test_a_block_lost_on_live_slots_beside_a_down_one_is_read_and_repaired(tmp_path, name,
                                                                          down, lost, caplog,
                                                                          monkeypatch):
    # the slots down + lost are a fatal pattern, yet the stripe lost only
    # the blocks held on down slots alone and the one corrupt on both hosts
    scheme = codes.parse_scheme(name)
    geo = codes._geometry(scheme)
    store = BlockStore.create(tmp_path / "s", scheme, nodes=scheme.code_length, block_size=64,
                              seed=3)
    src = write_file(tmp_path, scheme.data_block_count * 64, seed=27)
    manifest = store.put(src)
    stripe = manifest.stripes[0]
    block_id = next(b for b, slots in geo.placements.items() if slots == lost)
    for node in lost:  # a node plays its own slot: the scheme has groups
        overwrite(*replica(store, manifest, stripe, block_id, node), b"\xff" * 64)
    for node in down:
        store.kill_node(node)
    assert not codes.is_recoverable(scheme, {*down, *lost})
    assert not store.fsck().fatal_stripes
    read, moved = LOST_ON_LIVE_SLOTS[name]
    caplog.set_level(logging.INFO, logger="polycode.blockstore")
    assert store.get(src.name) == src.read_bytes()
    assert [bw for *_, bw in degraded_reads(caplog)] == [read]
    executed = []
    real = codes.execute_plan

    def recording(plan, reader):
        executed.append(plan)
        return real(plan, reader)

    monkeypatch.setattr(codes, "execute_plan", recording)
    result = store.repair()
    (plan,) = executed
    assert result.bandwidth_blocks == sum(t.src != t.dst for t in plan.transfers) == moved
    assert store.fsck().is_clean
    assert store.get(src.name) == src.read_bytes()


@st.composite
def damaged_stores(draw):
    """A scheme, a file of 1-2 stripes, nodes to kill, blocks to lose on
    every host, and single replicas to flip a byte of or cut off."""
    name = draw(st.sampled_from(["pentagon", "heptagon", "heptagon-local", "raidm-3"]))
    scheme = codes.parse_scheme(name)
    L, B = scheme.code_length, scheme.block_count
    size = draw(st.integers(1, 2 * scheme.data_block_count * 16))
    down = draw(st.sets(st.integers(0, L - 1), max_size=3))
    lost = draw(st.lists(st.integers(0, B - 1), max_size=2))
    hurt = draw(st.lists(st.tuples(st.integers(0, B - 1), st.integers(0, 2),
                                   st.sampled_from(["flip", "cut"])), max_size=4))
    return scheme, size, down, lost, hurt


@settings(max_examples=40, deadline=None)
@given(damaged_stores(), st.integers(0, 2**31))
def test_get_and_repair_serve_every_stripe_fsck_finds_recoverable(case, content_seed):
    scheme, size, down, lost, hurt = case
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        store = BlockStore.create(root / "s", scheme, nodes=scheme.code_length, block_size=16,
                                  seed=5)
        src = write_file(root, size, seed=content_seed)
        manifest = store.put(src)
        for node in down:
            store.kill_node(node)
        for stripe in manifest.stripes:
            damage = {(b, node): "flip" for b in lost for node in hosts(manifest, stripe, b)}
            for block_id, r, how in hurt:
                nodes = hosts(manifest, stripe, block_id)
                damage.setdefault((block_id, nodes[r % len(nodes)]), how)
            for (block_id, node), how in damage.items():
                path, offset = replica(store, manifest, stripe, block_id, node)
                if not path.exists() or offset >= path.stat().st_size:
                    continue  # node down, or a cut of an earlier block took the replica
                if how == "cut":
                    os.truncate(path, min(offset + 5, path.stat().st_size))
                else:
                    overwrite(path, offset, bytes([path.read_bytes()[offset] ^ 0xFF]))
        if store.fsck().fatal_stripes:
            return
        assert store.get(src.name) == src.read_bytes()
        store.repair()
        assert store.fsck().is_clean
        assert store.get(src.name) == src.read_bytes()


@settings(max_examples=12, deadline=None)
@given(
    size=st.integers(0, 4 * 9 * 256),
    content_seed=st.integers(0, 2**31),
    pattern=st.sets(st.integers(0, 4), max_size=2),
)
def test_roundtrip_property_random_files(size, content_seed, pattern):
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        store = BlockStore.create(root / "s", Polygon(5), nodes=5, block_size=256, seed=1)
        payload = random.Random(content_seed).randbytes(size)
        src = root / "f.bin"
        src.write_bytes(payload)
        store.put(src)
        for node in pattern:
            store.kill_node(node)
        assert store.get("f.bin") == payload
        store.repair()
        assert store.fsck().is_clean
        assert store.get("f.bin") == payload


def test_store_reopen(tmp_path, pentagon_store):
    path = write_file(tmp_path, 9 * BS, seed=14)
    pentagon_store.put(path)
    pentagon_store.kill_node(2)
    reopened = BlockStore(pentagon_store.root)
    assert reopened.node_state(2).status == "down"
    assert reopened.get("data.bin") == path.read_bytes()
    assert [m.name for m in reopened.manifests()] == ["data.bin"]


# -- several handles and processes on one root ------------------------------


def test_two_handles_on_one_root_keep_both_files(tmp_path):
    root = BlockStore.create(tmp_path / "store", Polygon(5), nodes=5, block_size=BS, seed=7).root
    a, b = BlockStore(root), BlockStore(root)
    x = write_file(tmp_path, 30_000, seed=31, name="x.bin")
    y = write_file(tmp_path, 30_000, seed=32, name="y.bin")
    a.put(x)
    b.put(y)
    assert BlockStore(root).fsck().is_clean
    assert a.get("x.bin") == x.read_bytes()
    assert b.get("y.bin") == y.read_bytes()


def test_a_kill_through_another_handle_holds(pentagon_store, tmp_path):
    early = BlockStore(pentagon_store.root)
    pentagon_store.kill_node(1)
    with pytest.raises(StoreError, match="^insufficient up nodes$"):
        early.put(write_file(tmp_path, 9 * BS, seed=33))
    assert BlockStore(pentagon_store.root).node_state(1).status == "down"
    assert not list(pentagon_store.root.glob("*.manifest.json"))


def test_a_put_waits_for_the_lock_another_handle_holds(pentagon_store, tmp_path):
    other = BlockStore(pentagon_store.root)
    src = write_file(tmp_path, 9 * BS, seed=36)
    with pentagon_store._locked():
        worker = threading.Thread(target=other.put, args=(src,))
        worker.start()
        worker.join(0.5)
        assert worker.is_alive()
        assert not pentagon_store.manifests()
    worker.join(60)
    assert not worker.is_alive()
    assert pentagon_store.get("data.bin") == src.read_bytes()


def test_a_repair_through_another_handle_is_seen_by_reads(tmp_path):
    """B kills node 0 and A repairs it, so node 0 is up and whole; once A
    kills nodes 1 and 2 the pentagon stripe has lost two nodes, which it
    survives, and B must see it so."""
    root = BlockStore.create(tmp_path / "s", Polygon(5), nodes=5, block_size=32, seed=5).root
    a, b = BlockStore(root), BlockStore(root)
    src = write_file(tmp_path, 9 * 32, seed=41)
    a.put(src)
    b.kill_node(0)
    a.repair()
    assert b.fsck().is_clean and b.node_state(0).status == "up"
    for node in (1, 2):
        a.kill_node(node)
    report = b.fsck()
    assert report == BlockStore(root).fsck()
    assert not report.fatal_stripes and len(report.missing) == 2
    assert b.get(src.name) == src.read_bytes()
    assert b.nodes() == BlockStore(root).nodes()


def test_a_heptagon_local_repair_through_another_handle_is_seen_by_reads(tmp_path):
    """A kills node 9 and B node 10; A repairs, kills node 8, and a byte of
    node 7's first block is flipped.  B's fsck must find what a fresh
    handle finds, a recoverable stripe, and B's repair must restore it."""
    root = BlockStore.create(tmp_path / "s", HeptagonLocal(), nodes=15, block_size=32,
                             seed=5).root
    a, b = BlockStore(root), BlockStore(root)
    src = write_file(tmp_path, 40 * 32, seed=1)
    a.put(src)
    a.kill_node(9)
    b.kill_node(10)
    a.repair()
    a.kill_node(8)
    target = root / "n7/blocks.blk"
    overwrite(target, 0, bytes([target.read_bytes()[0] ^ 0xFF]))
    report = b.fsck()
    assert report == BlockStore(root).fsck()
    assert not report.fatal_stripes and report.missing and report.corrupt
    assert b.get(src.name) == src.read_bytes()
    b.repair()
    assert a.fsck().is_clean and b.fsck().is_clean
    assert a.get(src.name) == src.read_bytes()


class TwoHandles(RuleBasedStateMachine):
    """Two handles on one store root, each of which puts, kills, revives
    and repairs, while node files are hurt behind their backs.  Both must
    read what a fresh handle reads."""

    @initialize(name=st.sampled_from(["pentagon", "heptagon-local", "raidm-3"]),
                spare=st.integers(0, 2))
    def create(self, name, spare):
        self.dir = Path(tempfile.mkdtemp())
        scheme = codes.parse_scheme(name)
        self.root = BlockStore.create(self.dir / "s", scheme, nodes=scheme.code_length + spare,
                                      block_size=32, seed=5).root
        self.handles = [BlockStore(self.root), BlockStore(self.root)]
        self.stripe = scheme.data_block_count * 32
        self.files: dict[str, bytes] = {}

    def teardown(self):
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir)

    @rule(h=st.integers(0, 1), size=st.integers(0, 2 * 40 * 32), seed=st.integers(0, 2**16))
    def put(self, h, size, seed):
        src = write_file(self.dir, size % (2 * self.stripe + 1), seed=seed,
                         name=f"f{len(self.files)}.bin")
        store = self.handles[h]
        if sum(n.status == "up" for n in store.nodes()) < store.scheme.code_length:
            with pytest.raises(StoreError, match="^insufficient up nodes$"):
                store.put(src)
        else:
            store.put(src)
            self.files[src.name] = src.read_bytes()

    @rule(h=st.integers(0, 1), node=st.integers(0, 16))
    def kill(self, h, node):
        store = self.handles[h]
        assert store.kill_node(node % store.node_count).status == "down"

    @rule(h=st.integers(0, 1), node=st.integers(0, 16))
    def revive(self, h, node):
        store = self.handles[h]
        assert store.revive_node(node % store.node_count).status == "up"

    @rule(pick=st.integers(0, 2**16), at=st.integers(0, 2**16), cut=st.booleans())
    def hurt(self, pick, at, cut):
        """Flip a byte of a node file, or cut the file short."""
        files = sorted(self.root.glob("n*/*.blk"))
        if not files:
            return
        path = files[pick % len(files)]
        size = path.stat().st_size
        if not size:
            return
        if cut:
            os.truncate(path, at % size)
        else:
            overwrite(path, at % size, bytes([path.read_bytes()[at % size] ^ 0xFF]))

    @rule(h=st.integers(0, 1))
    def repair(self, h):
        store = self.handles[h]
        if store.fsck().fatal_stripes:
            with pytest.raises(FatalStripeError):
                store.repair()
        else:
            store.repair()
            assert store.fsck().is_clean

    @invariant()
    def handles_read_what_a_fresh_handle_reads(self):
        fresh = BlockStore(self.root)
        report = fresh.fsck()
        fatal = {name for name, _ in report.fatal_stripes}
        for store in self.handles:
            assert store.fsck() == report
            assert store.nodes() == fresh.nodes()
            for name, payload in self.files.items():
                if name not in fatal:
                    assert store.get(name) == payload, name


TwoHandles.TestCase.settings = settings(max_examples=60, stateful_step_count=20,
                                        derandomize=True, deadline=None)
test_two_handles_read_the_store_as_it_is = TwoHandles.TestCase


# Opens its handle, says so, and waits for its stdin to close before it puts
# the files named in argv, so that every writer holds an open handle first.
WRITER = """
import sys
from polycode.blockstore import BlockStore
store = BlockStore(sys.argv[1])
print("ready", flush=True)
sys.stdin.read()
for path in sys.argv[2:]:
    store.put(path)
"""


def test_concurrent_writer_processes(tmp_path):
    root = BlockStore.create(tmp_path / "store", Polygon(5), nodes=5, block_size=BS, seed=7).root
    env = dict(os.environ, PYTHONPATH=str(Path(blockstore.__file__).parent.parent))
    payloads, writers = {}, []
    for w in range(3):
        paths = [write_file(tmp_path, 9 * BS * (1 + f) - 100 * w, seed=10 * w + f,
                            name=f"w{w}f{f}.bin") for f in range(3)]
        payloads.update((p.name, p.read_bytes()) for p in paths)
        writers.append(subprocess.Popen(
            [sys.executable, "-c", WRITER, str(root), *map(str, paths)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        ))
    try:
        for proc in writers:
            assert proc.stdout.readline() == "ready\n"
        for proc in writers:
            proc.stdin.close()
        for proc in writers:
            proc.wait(timeout=120)
            assert proc.returncode == 0, proc.stderr.read()
    finally:
        for proc in writers:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                pipe.close()
    store = BlockStore(root)
    assert store.fsck().is_clean
    for name, data in payloads.items():
        assert store.get(name) == data


# -- a write that fails at any step -----------------------------------------


class _DiskFull:
    """A file open for writing that takes half of what it is given and then
    fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_step(monkeypatch, step: int, writes: int) -> list[str]:
    """Make write step *step* of the store fail.  Steps 0 to writes-1 are
    the store's writes in order: each write of the next_offset mark, each
    replica written into its node file, and each temp JSON file opened for
    writing; step *writes* is the rename
    that follows them.  The failing write writes half of its bytes first.
    Returns the file of each write step taken."""
    real_open, real_os_open, real_pwrite = builtins.open, os.open, os.pwrite
    path_of, written = {}, []

    def failing(path: str) -> bool:
        written.append(path)
        return len(written) - 1 == step

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        return _DiskFull(fh) if failing(str(file)) else fh

    def os_open(path, *args, **kwargs):
        fd = real_os_open(path, *args, **kwargs)
        path_of[fd] = str(path)
        return fd

    def pwrite(fd, data, offset):
        if failing(path_of[fd]):
            real_pwrite(fd, memoryview(data)[: len(data) // 2], offset)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_pwrite(fd, data, offset)

    def replace(*args):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(blockstore, "open", open_, raising=False)
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(os, "pwrite", pwrite)
    if step == writes:
        monkeypatch.setattr(os, "replace", replace)
    return written


# the next_offset mark, 20 replica writes, the temp manifest, its rename
@pytest.mark.parametrize("step", range(23))
def test_put_failing_at_any_write_commits_nothing(pentagon_store, tmp_path, monkeypatch, step):
    kept = write_file(tmp_path, 2 * 9 * BS - 300, seed=21, name="kept.bin")
    pentagon_store.put(kept)
    src = write_file(tmp_path, 9 * BS, seed=22, name="new.bin")
    with monkeypatch.context() as m:
        written = fail_step(m, step, writes=22)
        with pytest.raises(OSError):
            pentagon_store.put(src)
    assert len(written) == min(step + 1, 22)
    assert written[-1].endswith("/next_offset" if step == 0 else ".blk" if step < 21
                                else "/new.bin.manifest.json.tmp")
    store = BlockStore(pentagon_store.root)  # as the next process finds it
    assert store.get("kept.bin") == kept.read_bytes()
    assert store.fsck().is_clean
    assert [m.name for m in store.manifests()] == ["kept.bin"]
    store.put(src)
    assert store.get("new.bin") == src.read_bytes()
    assert store.get("kept.bin") == kept.read_bytes()
    assert store.fsck().is_clean


@pytest.mark.parametrize("step", range(10))  # 8 replica writes, the temp store.json, its rename
def test_repair_failing_at_any_write_leaves_the_nodes_down(pentagon_store, tmp_path,
                                                           monkeypatch, step):
    src = write_file(tmp_path, 9 * BS, seed=23)
    pentagon_store.put(src)
    pentagon_store.kill_node(0)
    pentagon_store.kill_node(1)
    with monkeypatch.context() as m:
        written = fail_step(m, step, writes=9)
        with pytest.raises(OSError):
            pentagon_store.repair()
    assert written[-1].endswith(".blk" if step < 8 else "/store.json.tmp")
    store = BlockStore(pentagon_store.root)
    assert [n.status for n in store.nodes()] == ["down", "down", "up", "up", "up"]
    # once both node files are written only their up marks are left, and the
    # next repair finds no damage
    assert store.repair().plans_executed == int(step < 8)
    assert [n.status for n in store.nodes()] == ["up"] * 5
    assert store.fsck().is_clean
    assert store.get("data.bin") == src.read_bytes()


def test_repair_failing_partway_keeps_the_good_replicas_of_its_file(pentagon_store, tmp_path,
                                                                     monkeypatch):
    src = write_file(tmp_path, 9 * BS, seed=24)
    manifest = pentagon_store.put(src)
    stripe = manifest.stripes[0]
    target = pentagon_store.root / "n2/blocks.blk"
    held = sorted(b for b in range(len(stripe.crc32)) if 2 in hosts(manifest, stripe, b))
    before = target.read_bytes()
    junk = random.Random(25).randbytes(BS)
    for rank in (1, 3):
        overwrite(target, rank * BS, junk)
    with monkeypatch.context() as m:
        written = fail_step(m, 1, writes=3)  # rank 1 is rewritten, rank 3 fails halfway
        with pytest.raises(OSError):
            pentagon_store.repair()
    assert written == [str(target)] * 2
    after = target.read_bytes()
    assert len(after) == 4 * BS
    for rank in (0, 1, 2):
        assert after[rank * BS : (rank + 1) * BS] == before[rank * BS : (rank + 1) * BS]
    report = pentagon_store.fsck()
    assert report.corrupt == [("data.bin", 0, held[3], 2)]
    assert not report.missing and not report.fatal_stripes
    assert pentagon_store.repair().plans_executed == 1
    assert target.read_bytes() == before
    assert pentagon_store.fsck().is_clean


# -- stores written in an older format ---------------------------------------


def test_old_format_store_json_opens(tmp_path):
    """store.json once kept a store-global next_stripe: it is ignored, and
    the next write of store.json drops it."""
    root = tmp_path / "old"
    BlockStore.create(root, Polygon(5), nodes=5, block_size=BS, seed=7)
    config = {"scheme": "pentagon", "nodes": 5, "block_size": BS, "seed": 7, "down": [],
              "next_stripe": 7}
    (root / "store.json").write_text(json.dumps(config, indent=2) + "\n")
    store = BlockStore(root)
    new = write_file(tmp_path, 2 * 9 * BS, seed=35, name="new.bin")
    assert [s.offset for s in store.put(new).stripes] == [0, 4 * BS]
    assert store.fsck().is_clean
    assert store.get("new.bin") == new.read_bytes()
    store.kill_node(4)
    assert json.loads((root / "store.json").read_text())["down"] == [4]
    assert "next_stripe" not in json.loads((root / "store.json").read_text())
    assert store.repair().plans_executed == 2
    assert store.fsck().is_clean


@pytest.mark.parametrize("change", ["block", "node_order", "crc32"])
def test_stripe_records_that_do_not_fit_the_layout_are_refused(tmp_path, change):
    store = BlockStore.create(tmp_path / "s", RaidMirror(3), nodes=10, block_size=8, seed=7)
    src = tmp_path / "f.bin"
    src.write_bytes(bytes(range(40)))
    raw = store.put(src).to_dict()
    stripe = raw["stripes"][1]
    if change == "block":  # the retired format listed each block, not the CRCs
        stripe["blocks"] = [{"block": b, "crc32": crc} for b, crc in enumerate(stripe.pop("crc32"))]
    elif change == "node_order":
        stripe["node_order"].pop()
    else:
        stripe["crc32"].pop()
    (store.root / "f.bin.manifest.json").write_text(json.dumps(raw))
    message = r"^f\.bin stripe 1 disagrees with the raidm-3 layout$"
    for read in (lambda: store.load_manifest("f.bin"), lambda: store.get("f.bin"),
                 store.fsck, store.repair):
        with pytest.raises(StoreError, match=message):
            read()


@pytest.mark.parametrize("crc", [0x1234ABCD, "1234abc", "1234abcd0", "1234abcg", None])
def test_a_crc_that_is_not_8_hex_characters_is_refused_by_name(tmp_path, crc):
    store = BlockStore.create(tmp_path / "s", Polygon(5), nodes=5, block_size=16, seed=7)
    src = write_file(tmp_path, 100, seed=8)
    raw = store.put(src).to_dict()
    path = store.root / "data.bin.manifest.json"
    crcs = raw["stripes"][0]["crc32"] = [c.upper() for c in raw["stripes"][0]["crc32"]]
    path.write_text(json.dumps(raw))  # upper case is hex too
    assert store.fsck().is_clean and store.get("data.bin") == src.read_bytes()
    crcs[4] = crc
    path.write_text(json.dumps(raw))
    message = (f"^{re.escape(str(path))} is malformed: stripe 0 has a crc32"
               f" that is not 8 hex characters$")
    for read in (lambda: store.get("data.bin"), store.fsck, store.repair):
        with pytest.raises(StoreError, match=message):
            read()


@pytest.mark.parametrize("scheme", [Polygon(5), HeptagonLocal(), RaidMirror(3), Replication(2)])
def test_manifest_round_trips_through_its_dict(tmp_path, scheme):
    store = BlockStore.create(tmp_path / "s", scheme, nodes=scheme.code_length + 2,
                              block_size=16, seed=5)
    for i, size in enumerate([0, 1, 3 * scheme.data_block_count * 16 - 5]):
        manifest = store.put(write_file(tmp_path, size, seed=i, name=f"f{i}.bin"))
        assert blockstore.StoreManifest.from_dict(manifest.to_dict()) == manifest
        assert store.load_manifest(manifest.name) == manifest


def test_a_manifest_read_without_a_store_refuses_a_scheme_by_its_name():
    """Read without its store, a manifest's scheme is its own, so one that
    names no scheme is refused by the manifest's name."""
    d = {"file": "f", "size": 0, "scheme": "bogus", "block_size": 16, "stripes": []}
    with pytest.raises(StoreError, match="^m is malformed: its scheme 'bogus' is not a valid"):
        blockstore.StoreManifest.from_dict(d, "m")


@pytest.mark.parametrize("name", sorted({*cli.REPORT_SCHEMES, "raidm-3", "2-rep"}))
def test_slot_ranks_give_each_replica_one_offset(name):
    """A node file holds its slot's blocks in ``blocks_on`` order, so the
    order must ascend and a block's rank in it must place every (block,
    slot) of the scheme at its own offset, 0, size, 2 size, ..."""
    geo = codes._geometry(codes.parse_scheme(name))
    size = 16
    offsets = {}
    for block_id, slots in geo.placements.items():
        for slot in slots:
            offsets[block_id, slot] = geo.blocks_on[slot].index(block_id) * size
    for slot, ids in geo.blocks_on.items():
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert sorted(o for (_, s), o in offsets.items() if s == slot) == [
            rank * size for rank in range(len(ids))]
    assert set(offsets) == {(b, s) for s, ids in geo.blocks_on.items() for b in ids}


# -- the streaming data path ------------------------------------------------


def whole_file_put(store: BlockStore, path: Path, files: dict[str, bytearray],
                   offset: int) -> tuple[dict, int]:
    """What a put of *path* into *store* must write, from the whole file
    encoded a stripe at a time, its stripes from *offset* on, each
    *run* bytes past the last, run being the longest slot's blocks: each
    node's blocks of a stripe in block-id order at the stripe's offset of
    ``files[f"n{node}/blocks.blk"]``, its bytes before them zero where
    nothing was written.  Returns the manifest's dict and the next offset."""
    scheme, block, name = store.scheme, store.block_size, path.name
    geo = codes._geometry(scheme)
    run = block * max(len(ids) for ids in geo.blocks_on.values())
    data = path.read_bytes()
    stripe_bytes = scheme.data_block_count * block
    stripes = []
    for k in range(-(-len(data) // stripe_bytes)):
        chunk = data[k * stripe_bytes : (k + 1) * stripe_bytes].ljust(stripe_bytes, b"\0")
        up = [n.node_id for n in store.nodes() if n.status == "up"]
        order = codes.build_layout(scheme, up, zlib.crc32(f"{store.seed}:{name}:{k}".encode()))
        encoded = codes.encode_stripe(scheme, [chunk[i * block : (i + 1) * block]
                                               for i in range(scheme.data_block_count)])
        for slot, node in enumerate(order):
            body = files.setdefault(f"n{node}/blocks.blk", bytearray())
            held = b"".join(encoded[b] for b in sorted(encoded) if slot in geo.placements[b])
            body += bytes(offset - len(body)) + held  # a hole since the node's last run
        stripes.append({"offset": offset, "node_order": list(order),
                        "crc32": [f"{zlib.crc32(encoded[b]):08x}" for b in sorted(encoded)]})
        offset += run
    manifest = {"file": name, "size": len(data), "scheme": scheme.name, "block_size": block,
                "stripe_count": len(stripes), "stripes": stripes}
    return manifest, offset


def tree(root: Path) -> dict[str, bytes]:
    """Every file under *root* but the lock, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != ".lock"}


@pytest.mark.parametrize("scheme,block", [(Polygon(5), 64), (HeptagonLocal(), 16),
                                          (RaidMirror(3), 32), (Replication(2), 8)])
def test_put_writes_the_bytes_the_whole_file_put_wrote(tmp_path, scheme, block):
    """A put streams its input a block at a time, yet must write the
    manifest and node files that encoding the whole file gives, and the
    next_offset mark past its stripes."""
    stripe = scheme.data_block_count * block
    sizes = [0, 1, block - 1, stripe - 1, stripe, stripe + 1, 3 * stripe - block]
    store = BlockStore.create(tmp_path / "new", scheme, nodes=scheme.code_length + 2,
                              block_size=block, seed=5)
    expected = {"store.json": (store.root / "store.json").read_bytes()}
    files, offset = {}, 0
    for i, size in enumerate(sizes):
        src = write_file(tmp_path, size, seed=i, name=f"f{i}.bin")
        manifest, offset = whole_file_put(store, src, files, offset)
        assert store.put(src).to_dict() == manifest
        assert store.get(src.name) == src.read_bytes()
        expected[f"{src.name}.manifest.json"] = (
            json.dumps(manifest, separators=(",", ":")) + "\n").encode()
    expected.update(files)
    expected["next_offset"] = b"%020d\n" % offset
    assert tree(store.root) == expected and len(expected) > len(sizes)


def test_put_reads_a_pipe_to_its_end(pentagon_store, tmp_path):
    payload = random.Random(40).randbytes(2 * 9 * BS + 5)
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            for i in range(0, len(payload), 1000):  # short reads on the other end
                fh.write(payload[i : i + 1000])
                fh.flush()

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    manifest = pentagon_store.put(fifo, name="piped.bin")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (manifest.size, manifest.stripe_count) == (len(payload), 3)
    assert pentagon_store.get("piped.bin") == payload


HL_BLOCK = 64 * 1024
HL_STRIPE = 40 * HL_BLOCK


@pytest.fixture
def hl_file(tmp_path):
    """A 3-stripe file in a heptagon-local store with 64 KiB blocks."""
    store = BlockStore.create(tmp_path / "hl", HeptagonLocal(), nodes=15,
                              block_size=HL_BLOCK, seed=3)
    return store, write_file(tmp_path, 3 * HL_STRIPE, seed=41)


def peak_stripes(fn) -> float:
    """The most memory *fn* held at once, allocations before it not
    counted, in heptagon-local stripes of 64 KiB blocks."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / HL_STRIPE
    finally:
        tracemalloc.stop()


def test_put_holds_less_than_half_a_stripe(hl_file):
    store, src = hl_file
    assert peak_stripes(lambda: store.put(src)) < 0.5  # 6.4 when put read the file whole
    assert store.get(src.name) == src.read_bytes()


def cli_get(store, name, out):
    assert cli.main(["store", "get", "--root", str(store.root), "--name", name,
                     "--output", str(out)]) == 0


def test_cli_get_holds_a_fraction_of_a_stripe(hl_file, capsys):
    store, src = hl_file
    store.put(src)
    out = src.with_name("out.bin")
    assert peak_stripes(lambda: cli_get(store, src.name, out)) < 0.25  # 3.1 for the whole file
    assert out.read_bytes() == src.read_bytes()


def test_degraded_cli_get_holds_less_than_a_stripe(hl_file, capsys):
    store, src = hl_file
    store.put(src)
    for node in (0, 1, 2):
        store.kill_node(node)
    out = src.with_name("out.bin")
    assert peak_stripes(lambda: cli_get(store, src.name, out)) < 1  # 3.7 for the whole file
    assert out.read_bytes() == src.read_bytes()
    assert capsys.readouterr().out.endswith("; degraded transfers: 72\n")  # 24 a stripe


def test_degraded_cli_get_holds_less_than_half_a_stripe(hl_file, capsys):
    # a 3-loss plan holds its 9 bit-planes, then the 3 recoveries: 0.445;
    # 0.657 when every partial parity of the plan was summed at once
    store, src = hl_file
    store.put(src)
    for node in (0, 1, 2):
        store.kill_node(node)
    out = src.with_name("out.bin")
    assert peak_stripes(lambda: cli_get(store, src.name, out)) < 0.5
    assert out.read_bytes() == src.read_bytes()


def test_repair_holds_one_body_per_block(hl_file):
    store, src = hl_file
    store.put(src)
    for node in (0, 1, 2):
        store.kill_node(node)
    assert peak_stripes(store.repair) < 3  # 3.5 with every good replica kept
    assert store.fsck().is_clean
    assert store.get(src.name) == src.read_bytes()
