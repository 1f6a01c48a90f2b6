import ast
import contextlib
import csv
import io
import itertools
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycode
from polycode import cli, codes, schemes
from polycode.cli import emit_report, main

from helpers import can_decode_from


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_code_info_pentagon(capsys):
    code, out, _ = run(capsys, "code", "info", "--scheme", "pentagon")
    assert code == 0
    assert "storage_overhead: 2.22" in out
    assert "code_length: 5" in out
    assert "tolerance: 2" in out


def test_code_info_table_values(capsys):
    expected = {
        "pentagon": "2.22",
        "heptagon": "2.1",
        "heptagon-local": "2.15",
        "raidm-9": "2.22",
        "raidm-11": "2.18",
        "3-rep": "3",
    }
    for scheme, overhead in expected.items():
        code, out, _ = run(capsys, "code", "info", "--scheme", scheme)
        assert code == 0
        assert f"storage_overhead: {overhead}\n" in out


def test_unknown_scheme_is_domain_error(capsys):
    code, _, err = run(capsys, "code", "info", "--scheme", "dodecagon")
    assert code == 1
    assert "error" in err


def test_missing_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "code", "info")
    assert code == 2


@pytest.mark.parametrize("name", cli.REPORT_SCHEMES)
def test_encode_decode_roundtrip(name, tmp_path, capsys):
    """Decode with no node killed and with each recoverable kill of one or
    two node ids; a RAID+m or replication stripe sits on nodes in a random
    order, so a node id is not its slot."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(1).randbytes(5000))
    code, *_ = run(capsys, "code", "encode", "--scheme", name,
                   "--input", str(src), "--out-dir", str(tmp_path / "stripe"))
    assert code == 0
    scheme = schemes.parse_scheme(name)
    order = schemes.build_layout(scheme, range(scheme.code_length), 0)  # node of each slot
    kills = [()] + [k for size in (1, 2) for k in itertools.combinations(order, size)
                    if schemes.is_recoverable(scheme, {order.index(n) for n in k})]
    out_file = tmp_path / "out.bin"
    for killed in kills:
        code, _, err = run(capsys, "code", "decode", "--in-dir", str(tmp_path / "stripe"),
                           "--killed", ",".join(map(str, killed)), "--output", str(out_file))
        assert code == 0, (killed, err)
        assert out_file.read_bytes() == src.read_bytes(), killed
        out_file.unlink()


def test_decode_refuses_a_killed_node_that_holds_no_block(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"x" * 900)
    run(capsys, "code", "encode", "--scheme", "pentagon",
        "--input", str(src), "--out-dir", str(tmp_path / "stripe"))
    code, out, err = run(capsys, "code", "decode", "--in-dir", str(tmp_path / "stripe"),
                         "--killed", "0,5", "--output", str(tmp_path / "out.bin"))
    assert (code, out, err) == (1, "", "error: node 5 holds no block of the stripe\n")


def test_decode_unrecoverable_exit_one(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"x" * 900)
    run(capsys, "code", "encode", "--scheme", "pentagon",
        "--input", str(src), "--out-dir", str(tmp_path / "stripe"))
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(tmp_path / "stripe"),
                       "--killed", "0,1,2", "--output", str(tmp_path / "out.bin"))
    assert code == 1
    assert "unrecoverable" in err.lower() or "fatal" in err.lower()


def test_decode_rejects_block_file_failing_its_crc(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(7).randbytes(36864))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon",
        "--input", str(src), "--out-dir", str(stripe))
    blk = stripe / "b5.blk"
    body = bytearray(blk.read_bytes())
    body[100] ^= 0x01
    blk.write_bytes(bytes(body))
    out_file = tmp_path / "out.bin"
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                       "--killed", "0,1", "--output", str(out_file))
    # a corrupt block file is a lost block, and b5 is edge (1, 3): with slots
    # 0 and 1 killed, two blocks are lost beside one parity
    assert code == 1
    assert err.startswith("error:") and "determine the data" in err
    assert not out_file.exists()


def test_decode_reads_around_a_corrupt_block_file(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(5).randbytes(5000))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon",
        "--input", str(src), "--out-dir", str(stripe))
    body = bytearray((stripe / "b0.blk").read_bytes())
    body[0] ^= 0x01
    (stripe / "b0.blk").write_bytes(body)
    out_file = tmp_path / "out.bin"
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe), "--killed", "",
                       "--output", str(out_file))
    assert code == 0, err
    assert out_file.read_bytes() == src.read_bytes()


def test_decode_every_mix_of_one_or_two_missing_or_corrupt_block_files(tmp_path, capsys,
                                                                       monkeypatch):
    """A missing and a corrupt block file are both a lost block: the stripe
    decodes when the other blocks determine the data, and is refused with
    ``error:`` and exit 1 otherwise.  Pentagon mixes lose any one or two of
    its block files.  Heptagon-local mixes kill nodes 0 and 1, or 0, 1 and
    2, and lose one or two of a few more files.  Block 0's first plan,
    made for the killed slots alone, reads blocks 11 and 20, block 1 with
    two nodes killed and blocks 21 and 42 with three, so it meets another
    bad block, and a second plan is made from the exact damage; the second
    plans decode every mix of the first kind that reaches them and refuse
    all but two of the second."""
    plans = []
    real = codes.plan_degraded_read
    monkeypatch.setattr(codes, "plan_degraded_read",
                        lambda scheme, b, *damage: plans.append(b) or real(scheme, b, *damage))
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(6).randbytes(5000))
    out_file = tmp_path / "out.bin"
    outcomes = Counter()
    for name, killed, candidates in [("pentagon", "", range(10)),
                                     ("heptagon-local", "0,1", (1, 11, 20, 21, 42)),
                                     ("heptagon-local", "0,1,2", (11, 20, 21, 42))]:
        stripe = tmp_path / name
        run(capsys, "code", "encode", "--scheme", name, "--input", str(src),
            "--out-dir", str(stripe))
        scheme = schemes.parse_scheme(name)
        down = set(cli._parse_int_list(killed))  # a node plays its own slot
        gone = {b for b, slots in schemes._geometry(scheme).placements.items()
                if set(slots) <= down}
        files = {b: (stripe / f"b{b}.blk").read_bytes() for b in candidates}
        for size in (1, 2):
            for lost in itertools.combinations(files, size):
                for kinds in itertools.product(("missing", "corrupt"), repeat=size):
                    for b, kind in zip(lost, kinds):
                        if kind == "missing":
                            (stripe / f"b{b}.blk").unlink()
                        else:
                            (stripe / f"b{b}.blk").write_bytes(bytes(x ^ 0xFF for x in files[b]))
                    plans.clear()
                    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                                       "--killed", killed, "--output", str(out_file))
                    good = set(range(scheme.block_count)) - gone - set(lost)
                    if can_decode_from(scheme, good):
                        assert code == 0 and out_file.read_bytes() == src.read_bytes(), (
                            name, lost, kinds, err)
                    else:
                        assert code == 1 and err.startswith("error:"), (name, lost, kinds, err)
                        assert not out_file.exists()
                    out_file.unlink(missing_ok=True)
                    outcomes[name, code, len(plans) - len(set(plans))] += 1
                    for b in lost:
                        (stripe / f"b{b}.blk").write_bytes(files[b])
    # (scheme, exit code, second plans made from the exact damage)
    assert outcomes == {("pentagon", 0, 0): 20, ("pentagon", 1, 1): 180,
                        ("heptagon-local", 0, 0): 8, ("heptagon-local", 0, 1): 44,
                        ("heptagon-local", 1, 1): 30}


@pytest.mark.parametrize("crc", [0x1234ABCD, "1234abc", "1234abcg"])
def test_decode_refuses_a_crc_that_is_not_8_hex_characters_by_name(tmp_path, capsys, crc):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(8).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    meta = json.loads((stripe / "stripe.json").read_text())
    for info in meta["blocks"].values():
        info["crc32"] = info["crc32"].upper()  # upper case is hex too
    (stripe / "stripe.json").write_text(json.dumps(meta))
    out_file = tmp_path / "out.bin"
    argv = ["code", "decode", "--in-dir", str(stripe), "--output", str(out_file)]
    assert run(capsys, *argv)[0] == 0 and out_file.read_bytes() == src.read_bytes()
    out_file.unlink()
    meta["blocks"]["0"]["crc32"] = crc
    (stripe / "stripe.json").write_text(json.dumps(meta))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {stripe / 'stripe.json'} is malformed: its blocks[0].crc32 is not 8"
                   f" hex digits\n")
    assert not out_file.exists()


def test_decode_whose_parity_check_fails_leaves_the_output_as_it_was(tmp_path, capsys):
    # the parity b9 is rewritten with its CRC, so only the final check sees it
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(9).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    meta = json.loads((stripe / "stripe.json").read_text())
    (stripe / "b9.blk").write_bytes(bytes(100))
    meta["blocks"]["9"]["crc32"] = f"{zlib.crc32(bytes(100)):08x}"
    (stripe / "stripe.json").write_text(json.dumps(meta))
    out_file = tmp_path / "out.bin"
    out_file.write_bytes(b"old")
    code, out, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                         "--output", str(out_file))
    assert (code, out) == (1, "")
    assert err == "error: block 9 violates the stripe's parity relations\n"
    assert out_file.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin", "out.bin", "stripe"]


@pytest.mark.parametrize("killed", ["0,1,2", ""])
def test_decode_holds_less_than_a_stripe(tmp_path, capsys, killed):
    """``code decode`` streams the stripe to its output: under tracemalloc
    its peak is below one heptagon-local stripe of 64 KiB blocks (0.520
    with nodes 0-2 killed and 0.433 with none, against 1.439 and 1.433
    when it read every surviving block before decoding)."""
    width = 64 * 1024
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(15).randbytes(40 * width))
    run(capsys, "code", "encode", "--scheme", "heptagon-local", "--input", str(src),
        "--out-dir", str(tmp_path / "stripe"))
    out_file = tmp_path / "out.bin"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["code", "decode", "--in-dir", str(tmp_path / "stripe"), "--killed", killed,
                     "--output", str(out_file)])
        peak = (tracemalloc.get_traced_memory()[1] - before) / (40 * width)
    finally:
        tracemalloc.stop()
    assert code == 0 and out_file.read_bytes() == src.read_bytes()
    assert peak < 1.0


def encode_and_lose_b5(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(5).randbytes(5000))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon",
        "--input", str(src), "--out-dir", str(stripe))
    (stripe / "b5.blk").unlink()
    return src, stripe


def test_decode_rebuilds_a_missing_block_file(tmp_path, capsys):
    src, stripe = encode_and_lose_b5(tmp_path, capsys)
    out_file = tmp_path / "out.bin"
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                       "--output", str(out_file))
    assert code == 0, err
    assert out_file.read_bytes() == src.read_bytes()


def test_decode_heptagon_local_block_missing_on_live_slots(tmp_path, capsys):
    # b11 is edge (2, 3), which the plans for slots 0 and 1 read from
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(11).randbytes(5000))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "heptagon-local",
        "--input", str(src), "--out-dir", str(stripe))
    (stripe / "b11.blk").unlink()
    out_file = tmp_path / "out.bin"
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                       "--killed", "0,1", "--output", str(out_file))
    assert code == 0, err
    assert out_file.read_bytes() == src.read_bytes()


def test_decode_pentagon_block_missing_next_to_a_killed_slot(tmp_path, capsys):
    # b4 is edge (1, 2): with slot 0 killed its degraded read sees slots
    # 0, 1 and 2 down, a fatal slot pattern, but the stripe still decodes
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(4).randbytes(5000))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon",
        "--input", str(src), "--out-dir", str(stripe))
    (stripe / "b4.blk").unlink()
    out_file = tmp_path / "out.bin"
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                       "--killed", "0", "--output", str(out_file))
    assert code == 0, err
    assert out_file.read_bytes() == src.read_bytes()


def test_decode_missing_block_file_beyond_tolerance_exits_one(tmp_path, capsys):
    _, stripe = encode_and_lose_b5(tmp_path, capsys)
    out_file = tmp_path / "out.bin"
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                       "--killed", "0,1", "--output", str(out_file))
    assert code == 1
    assert err.startswith("error:") and "determine the data" in err
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("name,killed", [("pentagon", "0,1"), ("heptagon-local", "0,1,2")])
def test_decode_opens_each_block_file_once(tmp_path, capsys, monkeypatch, name, killed):
    """The served blocks, the plans' sources and the final parity check
    share one descriptor a block file: 9 and 41 opens where each read
    opened its own made 18 and 81."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(16).randbytes(5000))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", name, "--input", str(src), "--out-dir", str(stripe))
    scheme = schemes.parse_scheme(name)
    down = set(cli._parse_int_list(killed))  # a node plays its own slot
    readable = {f"b{b}.blk" for b, slots in schemes._geometry(scheme).placements.items()
                if not set(slots) <= down}
    opened = Counter()
    real_open, real_os_open = io.open, os.open

    def counting(real):
        def opener(path, *args, **kwargs):
            if str(path).endswith(".blk"):
                opened[os.path.basename(path)] += 1
            return real(path, *args, **kwargs)
        return opener

    monkeypatch.setattr(io, "open", counting(real_open))
    monkeypatch.setattr(os, "open", counting(real_os_open))
    code, _, err = run(capsys, "code", "decode", "--in-dir", str(stripe), "--killed", killed,
                       "--output", str(tmp_path / "out.bin"))
    monkeypatch.undo()
    assert code == 0, err
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    assert opened == dict.fromkeys(readable, 1)


@pytest.mark.parametrize("edit", ["../other/b3.blk", "/b3.blk", "..", None])
def test_decode_refuses_a_block_entry_that_leaves_its_directory(tmp_path, capsys, edit):
    """A block's file is one name in ``--in-dir``, and stripe.json has an
    entry for every block: b3 is moved out and named from outside, or its
    entry dropped, and the stripe is refused by name though it would
    decode without b3."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(17).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    (tmp_path / "other").mkdir()
    (stripe / "b3.blk").rename(tmp_path / "other" / "b3.blk")
    meta = json.loads((stripe / "stripe.json").read_text())
    if edit is None:
        del meta["blocks"]["3"]
    else:
        meta["blocks"]["3"]["file"] = edit
    (stripe / "stripe.json").write_text(json.dumps(meta))
    out_file = tmp_path / "out.bin"
    code, out, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                         "--output", str(out_file))
    what = ("blocks is not an object of 10 entries" if edit is None
            else "blocks[3].file is not a file name")
    assert (code, out) == (1, "")
    assert err == f"error: {stripe / 'stripe.json'} is malformed: its {what}\n"
    assert not out_file.exists()


def _run_in_limited_process(*argv) -> subprocess.CompletedProcess:
    """Run the CLI on *argv* in a new interpreter that first caps its own
    address space at 2 GiB, so a huge allocation fails fast there."""
    limit = 2 << 30
    probe = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}));"
             " from polycode.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(polycode.__file__).parent.parent))
    return subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("where", ["store init", "code encode", "store.json", "manifest",
                                   "stripe.json"])
def test_a_block_size_past_the_limit_is_refused_by_name(tmp_path, capsys, where):
    """A block size of 2**40 bytes, given as --block-size or read from a
    metadata file, ends in a refusal that names it, not in a MemoryError:
    a store.json's in store put, a manifest's in store get, a stripe.json's
    in code decode."""
    from polycode.blockstore import MAX_BLOCK_SIZE

    huge, root, stripe, out = 2**40, tmp_path / "store", tmp_path / "stripe", tmp_path / "out.bin"
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(20).randbytes(900))
    meta = None
    if where == "store init":
        argv = ["store", "init", "--root", root, "--scheme", "pentagon",
                "--block-size", huge, "--seed", 1]
        named = f"error: block_size {huge} is outside 1..{MAX_BLOCK_SIZE}"
    elif where == "code encode":
        argv = ["code", "encode", "--scheme", "pentagon", "--input", src, "--out-dir", stripe,
                "--block-size", huge]
        named = f"usage error: --block-size {huge} is outside 1..{MAX_BLOCK_SIZE}"
    elif where == "stripe.json":
        run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
            "--out-dir", str(stripe))
        meta = stripe / "stripe.json"
        argv = ["code", "decode", "--in-dir", stripe, "--output", out]
    else:
        run(capsys, "store", "init", "--root", str(root), "--scheme", "pentagon",
            "--block-size", "64", "--seed", "1")
        run(capsys, "store", "put", "--root", str(root), "--file", str(src), "--name", "f")
        if where == "store.json":
            meta = root / "store.json"
            argv = ["store", "put", "--root", root, "--file", src, "--name", "g"]
        else:
            meta = root / "f.manifest.json"
            argv = ["store", "get", "--root", root, "--name", "f", "--output", out]
    if meta is not None:  # a manifest's block size is the store's, 64
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()), block_size=huge)))
        bounds = "64..64" if where == "manifest" else f"1..{MAX_BLOCK_SIZE}"
        named = f"error: {meta} is malformed: its block_size is not an integer in {bounds}"
    done = _run_in_limited_process(*argv)
    assert done.returncode in (1, 2) and done.stdout == "", done.stderr
    assert done.stderr == f"{named}\n"
    assert not out.exists()


def test_put_refuses_a_node_count_past_the_limit_by_name(tmp_path, capsys):
    """A store.json node count of 2**40 is refused by name before put lists
    the up nodes, where it used to end in a MemoryError; kill and revive
    still take it (test_kill_and_revive_read_one_node_state)."""
    from polycode.blockstore import MAX_NODES

    root, src = tmp_path / "store", tmp_path / "input.bin"
    src.write_bytes(random.Random(21).randbytes(900))
    run(capsys, "store", "init", "--root", str(root), "--scheme", "pentagon",
        "--block-size", "64", "--seed", "1")
    config = root / "store.json"
    config.write_text(json.dumps(dict(json.loads(config.read_text()), nodes=2**40)))
    done = _run_in_limited_process("store", "put", "--root", root, "--file", src)
    assert (done.returncode, done.stdout) == (1, ""), done.stderr
    assert done.stderr == (f"error: {config} is malformed: its nodes {2**40} is more than"
                           f" the {MAX_NODES} a store can have\n")
    assert sorted(p.name for p in root.glob("*.json")) == ["store.json"]
    assert not list(root.glob("n*/*.blk"))


@pytest.mark.parametrize("argv", [["store", "init", "--scheme", "100000000-rep", "--seed", "1"],
                                  ["code", "info", "--scheme", "polygon-100000"]])
def test_a_scheme_too_large_to_lay_out_is_refused_by_name(tmp_path, argv):
    """A scheme's counts are read from its geometry, which refuses more
    than MAX_BLOCKS blocks or slots before it lays them out: a polygon of
    10**5 nodes used to end code info in a MemoryError."""
    root = ["--root", tmp_path / "s"] if argv[0] == "store" else []
    done = _run_in_limited_process(*argv, *root)
    assert done.returncode == 1
    assert done.stderr == (f"error: {argv[3]} lays out more than {schemes.MAX_BLOCKS}"
                           f" blocks or slots\n")


@pytest.mark.parametrize("where", ["manifest", "stripe.json"])
def test_a_recorded_size_that_cuts_off_data_is_refused_by_name(tmp_path, monkeypatch, capsys,
                                                                 where):
    """Every byte past a file's end is zero padding, so a manifest size or
    a stripe.json original_size that cuts off a nonzero byte is refused by
    name, and no output is written: a manifest size of 255, of 5,000, used
    to make get write 255 bytes with exit 0.  A size raised into the
    padding is not found (README)."""
    monkeypatch.chdir(tmp_path)
    Path("f").write_bytes(random.Random(4).randbytes(5000 if where == "manifest" else 900))
    if where == "manifest":
        setups = (["store", "init", *_STORE, "--scheme", "pentagon", "--block-size", "64",
                   "--seed", "1"], ["store", "put", *_STORE, "--file", "f"])
        target, key, size, argv = Path("s/f.manifest.json"), "size", 255, ["store", *_GET]
    else:
        setups = (["code", "encode", "--scheme", "pentagon", "--input", "f", "--out-dir",
                   "stripe"],)
        target, key, size, argv = Path("stripe/stripe.json"), "original_size", 450, _DECODE
    for setup in setups:
        assert run(capsys, *setup)[0] == 0
    target.write_text(json.dumps(dict(json.loads(target.read_text()), **{key: size})))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {target} is malformed: its {key} {size} cuts off bytes that are not zero\n"
    assert not Path("o").exists() and not Path("out").exists()


@pytest.mark.parametrize("block_size", ["missing", "x", 0, -100, 100.0, True, None])
def test_decode_refuses_a_block_size_that_is_not_a_positive_integer(tmp_path, capsys,
                                                                     block_size):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(18).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    meta = json.loads((stripe / "stripe.json").read_text())
    assert meta["block_size"] == 100
    if block_size == "missing":
        del meta["block_size"]
    else:
        meta["block_size"] = block_size
    (stripe / "stripe.json").write_text(json.dumps(meta))
    code, out, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                         "--output", str(tmp_path / "out.bin"))
    what = "is missing" if block_size == "missing" else "is not an integer in 1..268435456"
    assert (code, out) == (1, "")
    assert err == f"error: {stripe / 'stripe.json'} is malformed: its block_size {what}\n"


@pytest.mark.parametrize("size", [-5, -1, 901, 10**6])
def test_decode_refuses_an_original_size_its_data_blocks_cannot_hold(tmp_path, capsys, size):
    """A recorded size below 0 or past the stripe's 900 data bytes is
    refused by name: -5 used to cut the output to 95 bytes by negative
    slicing, and 10**6 to write the 900 bytes, both with exit 0."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(19).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    meta = json.loads((stripe / "stripe.json").read_text())
    meta["original_size"] = size
    (stripe / "stripe.json").write_text(json.dumps(meta))
    out_file = tmp_path / "out.bin"
    code, out, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                         "--output", str(out_file))
    assert (code, out) == (1, "")
    assert err == (f"error: {stripe / 'stripe.json'} is malformed: its original_size is not an"
                   f" integer in 0..900\n")
    assert not out_file.exists()


@pytest.mark.parametrize("change", [b"x", b""])
def test_decode_reads_a_block_file_of_another_length_as_lost(tmp_path, capsys, change):
    """A block file one byte longer (its block and a byte) or shorter than
    ``block_size`` is a lost block, as a missing one is: read around when
    the other blocks determine the data, and refused with exit 1 when b5
    is lost beside killed nodes 0 and 1."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(19).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    body = (stripe / "b5.blk").read_bytes()
    (stripe / "b5.blk").write_bytes(body + change if change else body[:-1])
    out_file = tmp_path / "out.bin"
    argv = ["code", "decode", "--in-dir", str(stripe), "--output", str(out_file)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert out_file.read_bytes() == src.read_bytes()
    out_file.unlink()
    code, _, err = run(capsys, *argv, "--killed", "0,1")
    assert code == 1 and err.startswith("error:") and "determine the data" in err
    assert not out_file.exists()


def test_decode_names_a_block_file_it_cannot_read(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(20).randbytes(900))
    stripe = tmp_path / "stripe"
    run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(src),
        "--out-dir", str(stripe))
    (stripe / "b3.blk").unlink()
    (stripe / "b3.blk").mkdir()
    code, out, err = run(capsys, "code", "decode", "--in-dir", str(stripe),
                         "--output", str(tmp_path / "out.bin"))
    assert (code, out, err) == (1, "", f"error: {stripe / 'b3.blk'}: Is a directory\n")


def test_no_cli_function_opens_a_block_file():
    """Each function of cli that opens, reads, writes or removes a file,
    and each call by which it does so, with its first argument.  Block
    files and stripe.json are opened, read and written by ``blockstore``
    alone: ``code encode`` reads only its input, ``code decode`` touches
    no file itself, and the other calls touch a config file, a report's
    input or output, or the output that ``_write_output`` replaces."""
    calls = {}
    for fn in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                name = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
                if re.fullmatch(r"open|os\.\w+|.*\.(unlink|open|glob|iterdir|readall"
                                r"|(read|write)_(bytes|text))", name):
                    first = ast.unparse(node.args[0]) if node.args else ""
                    calls.setdefault(fn.name, set()).add(f"{name}({first})")
    assert calls == {
        "emit_report": {"open(path)"},
        "_expand_config": {"path.read_text()"},
        "_writev_all": {"os.writev(fd)", "os.write(fd)"},
        "_write_output": {"os.stat(path)", "os.open(path)", "os.open(tmp)", "os.close(fd)",
                          "os.getpid()", "os.fchmod(fd)", "os.replace(tmp)", "os.unlink(tmp)"},
        "_cmd_code_encode": {"open(args.input)", "os.fstat(src.fileno())", "src.readall()"},
        "_cmd_report": {"open(args.input)"},
    }


def test_cli_uses_no_private_name_of_blockstore():
    """``blockstore`` knows every metadata format and block-file layout, and
    cli reaches it only through public names: it imports no underscore name
    from it and reads no underscore attribute of the module."""
    private = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("blockstore",
                                                                 "polycode.blockstore"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and ast.unparse(node.value) == "blockstore"
              and node.attr.startswith("_")):
            private.append(node.attr)
    assert private == []


# modules that only some commands need, so that cli imports none of them itself
LAZY = ("polycode.codes", "polycode.blockstore", "polycode.mapsched", "polycode.reliability",
        "logging", "argparse", "csv", "json", "concurrent.futures.process", "pathlib")
# standard modules that no store command needs: records are plain classes,
# annotations need no typing, and only the simulators use rationals
UNUSED = ("dataclasses", "inspect", "typing", "fractions", "decimal")
WATCHED = LAZY + UNUSED


def _in_fresh_process(*argvs, cwd=None):
    """Import polycode.cli in a new interpreter, with no site module, so
    that no .pth file of the environment loads a module first, and run each
    argv through main: (exit codes, the WATCHED modules loaded since
    start-up, stderr)."""
    probe = "\n".join([
        "import sys",
        f"before = {{m for m in {WATCHED!r} if m in sys.modules}}",
        "from polycode import cli",
        "def run(argv):",
        "    try:",
        "        return cli.main(argv)",
        "    except SystemExit as exc:  # --help",
        "        return exc.code",
        f"codes = [run(argv) for argv in {[list(a) for a in argvs]!r}]",
        f"print(repr((codes, sorted(set({WATCHED!r}) & set(sys.modules) - before))))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(polycode.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    codes, loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    return codes, set(loaded), done.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    assert _in_fresh_process() == ([], set(), "")


@pytest.mark.parametrize("argvs, unloaded", [
    ([["sim", "reliability", "--scheme", "pentagon", "--mttf-hours", "100", "--mttr-hours",
       "10", "--trials", "100", "--seed", "1"]],
     {"polycode.codes", "polycode.blockstore", "polycode.mapsched", "logging", "argparse",
      "dataclasses", "inspect", "pathlib"}),
    ([["sim", "locality", "--scheme", "pentagon", "--reps", "1", "--seed", "1"]],
     {"polycode.codes", "polycode.blockstore", "polycode.reliability", "logging", "argparse",
      "dataclasses", "inspect", "pathlib"}),
    ([["store", "init", "--root", "s", "--scheme", "pentagon", "--seed", "1"],
      ["store", "fsck", "--root", "s"]],
     {"polycode.mapsched", "polycode.reliability", "argparse", "csv", "logging", *UNUSED}),
    ([["code", "info", "--scheme", "pentagon"]], set(LAZY) | {"dataclasses", "inspect", "typing"}),
    ([["--help"]], set(LAZY) - {"argparse"}),
    ([["--config", "info.cfg", "code", "info"]], set(LAZY) - {"argparse", "pathlib"}),
    ([["report", "--kind", "schemes", "--out", "schemes.csv"]],
     {"polycode.codes", "polycode.blockstore", "polycode.mapsched", "logging", "argparse",
      "pathlib"}),
], ids=["sim-reliability", "sim-locality", "store-fsck", "code-info", "help", "config", "report"])
def test_a_command_leaves_the_modules_it_does_not_run_unloaded(argvs, unloaded, tmp_path):
    (tmp_path / "info.cfg").write_text("scheme=pentagon\n")
    codes, loaded, err = _in_fresh_process(*argvs, cwd=tmp_path)
    assert codes == [0] * len(argvs), err
    assert not loaded & unloaded


def test_only_the_byte_path_imports_codes():
    """``schemes`` imports no polycode module but ``gf256``, and neither the
    simulators nor ``cli``'s module level import ``codes``, so a command
    that moves no block never loads the byte path."""
    src = Path(polycode.__file__).parent

    def imported(name, top_level_only=False):
        tree = ast.parse((src / f"{name}.py").read_text())
        out = set()
        for node in tree.body if top_level_only else ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = ("polycode." if node.level else "") + (node.module or "")
                names = [module] if node.module else [module + a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            out |= {n.removeprefix("polycode.") for n in names if n.startswith("polycode.")}
        return out

    assert imported("schemes") == {"gf256"}
    assert "codes" not in imported("reliability") | imported("mapsched")
    assert "codes" not in imported("cli", top_level_only=True)
    assert "codes" in imported("cli")  # code repair-plan imports it itself


def test_a_code_error_exits_one_when_codes_is_loaded_by_the_command():
    argv = ["code", "repair-plan", "--scheme", "pentagon", "--failed", "0,1,2"]
    codes, loaded, err = _in_fresh_process(argv)
    assert codes == [1] and "polycode.codes" in loaded
    assert err == ("error: fatal for pentagon: with slots [0, 1, 2] down,"
                   " the good blocks do not determine the data\n")


def test_a_store_error_exits_one_when_blockstore_is_loaded_by_the_command(tmp_path, capsys):
    assert main(["store", "init", "--root", str(tmp_path / "s"), "--scheme", "pentagon",
                 "--seed", "1"]) == 0
    argv = ["store", "get", "--root", "s", "--name", "missing", "--output", "o"]
    codes, loaded, err = _in_fresh_process(argv, cwd=tmp_path)
    assert codes == [1] and "polycode.blockstore" in loaded
    assert err == "error: no such stored file: missing\n"


def test_repair_plan_bandwidth(capsys):
    code, out, _ = run(capsys, "code", "repair-plan", "--scheme", "pentagon", "--failed", "0,1")
    assert code == 0
    assert "bandwidth_blocks: 10" in out
    code, out, _ = run(capsys, "code", "repair-plan", "--scheme", "heptagon", "--failed", "2,5")
    assert "bandwidth_blocks: 16" in out


def test_repair_plan_beyond_the_tolerance(capsys):
    # four slots, one from each of four mirror pairs: recoverable, one copy each
    code, out, err = run(capsys, "code", "repair-plan", "--scheme", "raidm-9", "--failed", "0,2,4,6")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "n1 -> n0: copy block 0",
        "n3 -> n2: copy block 1",
        "n5 -> n4: copy block 2",
        "n7 -> n6: copy block 3",
        "bandwidth_blocks: 4",
    ]
    code, _, err = run(capsys, "code", "repair-plan", "--scheme", "raidm-9", "--failed", "0,1,2,3")
    assert code == 1 and "fatal" in err


def test_store_cycle(tmp_path, capsys):
    root = tmp_path / "store"
    src = tmp_path / "f.bin"
    src.write_bytes(random.Random(2).randbytes(20000))
    assert main(["store", "init", "--root", str(root), "--scheme", "pentagon",
                 "--block-size", "1024", "--seed", "4"]) == 0
    assert main(["store", "put", "--root", str(root), "--file", str(src)]) == 0
    assert main(["store", "kill", "--root", str(root), "--node", "0"]) == 0
    code, out, _ = run(capsys, "store", "fsck", "--root", str(root))
    assert code == 0 and "damaged" in out
    code, out, _ = run(capsys, "store", "repair", "--root", str(root))
    assert code == 0 and "bandwidth_blocks" in out
    out_file = tmp_path / "g.bin"
    assert main(["store", "get", "--root", str(root), "--name", "f.bin",
                 "--output", str(out_file)]) == 0
    assert out_file.read_bytes() == src.read_bytes()
    code, out, _ = run(capsys, "store", "fsck", "--root", str(root))
    assert "clean" in out


@pytest.mark.parametrize("scheme,nodes,data_blocks,stripes,killed", [
    ("pentagon", 5, 9, [1, 1, 2], [0, 1]),
    ("heptagon-local", 15, 40, [2, 1], [0, 1, 2]),
])
def test_store_fsck_missing_counts_the_block_files_of_the_killed_nodes(
    tmp_path, capsys, scheme, nodes, data_blocks, stripes, killed
):
    """The check the benchmark cycle makes: after the kills, fsck's
    missing count equals the block files the killed nodes held."""
    root, block = tmp_path / "store", 64
    assert main(["store", "init", "--root", str(root), "--scheme", scheme, "--nodes",
                 str(nodes), "--block-size", str(block), "--seed", "7"]) == 0
    rng = random.Random(8)
    for i, count in enumerate(stripes):
        src = tmp_path / f"f{i}.bin"
        src.write_bytes(rng.randbytes(count * data_blocks * block - rng.randrange(32, 96)))
        assert main(["store", "put", "--root", str(root), "--file", str(src)]) == 0
    held = sum(len(list((root / f"n{k}").glob("*.blk"))) for k in killed)
    assert held == len(killed)  # one file per node, whatever its stripes
    for k in killed:
        assert main(["store", "kill", "--root", str(root), "--node", str(k)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "store", "fsck", "--root", str(root))
    assert code == 0
    assert out == f"missing: {held}\ncorrupt: 0\nfatal_stripes: 0\ndamaged\n"
    assert main(["store", "repair", "--root", str(root)]) == 0
    capsys.readouterr()
    assert run(capsys, "store", "fsck", "--root", str(root))[1].endswith("clean\n")


@pytest.mark.parametrize("text", [None, b"12\n", b"%020d\n" % 0])
def test_fsck_reports_a_next_offset_mark_that_is_gone_malformed_or_behind(tmp_path, monkeypatch,
                                                                         capsys, text):
    """fsck compares the mark with the end of the furthest run a manifest
    names, as repair does: a mark that is gone, malformed or behind it is
    damage, named on a line of its own, and repair mends it.  A mark set
    to 0 used to leave fsck clean, and the next put wrote over stored runs."""
    monkeypatch.chdir(tmp_path)
    Path("f").write_bytes(random.Random(5).randbytes(3000))  # 6 stripes of 4-block runs
    for setup in (["store", "init", *_STORE, "--scheme", "pentagon", "--block-size", "64",
                   "--seed", "1"], ["store", "put", *_STORE, "--file", "f"]):
        assert run(capsys, *setup)[0] == 0
    mark = Path("s/next_offset")
    assert mark.read_bytes() == b"%020d\n" % (6 * 4 * 64)
    if text is None:
        mark.unlink()
    else:
        mark.write_bytes(text)
    fault = {None: "is missing",
             b"12\n": f"is malformed: it needs 20 digits of an offset in 0..{2**62} and a newline",
             }.get(text, f"is behind the runs, which end at {6 * 4 * 64}")
    counts = "missing: 0\ncorrupt: 0\nfatal_stripes: 0\n"
    assert run(capsys, "store", "fsck", *_STORE) == (
        0, f"{counts}next_offset: {mark} {fault}\ndamaged\n", "")
    assert run(capsys, "store", "repair", *_STORE)[0] == 0
    assert mark.read_bytes() == b"%020d\n" % (6 * 4 * 64)
    assert run(capsys, "store", "fsck", *_STORE) == (0, f"{counts}clean\n", "")


def test_store_init_requires_seed(capsys):
    code, _, err = run(capsys, "store", "init", "--root", "/tmp/x", "--scheme", "pentagon")
    assert code == 2


def _pentagon_store(tmp_path, capsys):
    root = tmp_path / "store"
    code, *_ = run(capsys, "store", "init", "--root", str(root), "--scheme", "pentagon",
                   "--block-size", "1024", "--seed", "4")
    assert code == 0
    return root


@pytest.mark.parametrize("name", ["a/b", "../escape", ".", "..", "", "a\0b"])
def test_store_put_rejects_a_name_that_is_not_one_file_in_the_root(tmp_path, capsys, name):
    root = _pentagon_store(tmp_path, capsys)
    src = tmp_path / "f.bin"
    src.write_bytes(random.Random(3).randbytes(5000))
    code, _, err = run(capsys, "store", "put", "--root", str(root), "--file", str(src),
                       "--name", name)
    assert code == 1 and err.startswith("error: invalid file name")
    assert not list(root.rglob("*.blk"))
    assert not list(tmp_path.rglob("*.manifest.json"))
    code, out, _ = run(capsys, "store", "fsck", "--root", str(root))
    assert code == 0 and "clean" in out


def test_store_get_rejects_a_name_that_leaves_the_root(tmp_path, capsys):
    root = _pentagon_store(tmp_path, capsys)
    src = tmp_path / "outside"
    src.write_bytes(random.Random(7).randbytes(5000))
    assert run(capsys, "store", "put", "--root", str(root), "--file", str(src))[0] == 0
    (root / "outside.manifest.json").rename(tmp_path / "outside.manifest.json")
    out_file = tmp_path / "o.bin"
    code, out, err = run(capsys, "store", "get", "--root", str(root), "--name", "../outside",
                         "--output", str(out_file))
    assert (code, out) == (1, "") and err == "error: no such stored file: ../outside\n"
    assert not out_file.exists()


def _stored_pentagon_file(tmp_path, capsys):
    root = _pentagon_store(tmp_path, capsys)
    src = tmp_path / "f.bin"
    src.write_bytes(random.Random(8).randbytes(3 * 9 * 1024 - 10))
    assert run(capsys, "store", "put", "--root", str(root), "--file", str(src))[0] == 0
    return root, src


def test_a_failed_store_get_leaves_the_output_as_it_was(tmp_path, capsys):
    root, _ = _stored_pentagon_file(tmp_path, capsys)
    for node in (0, 1, 2):
        assert main(["store", "kill", "--root", str(root), "--node", str(node)]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_file = out_dir / "g.bin"
    out_file.write_bytes(b"kept")
    code, _, err = run(capsys, "store", "get", "--root", str(root), "--name", "f.bin",
                       "--output", str(out_file))
    assert code == 1 and err.startswith("error:")
    assert [p.name for p in out_dir.iterdir()] == ["g.bin"]
    assert out_file.read_bytes() == b"kept"


def test_store_get_replaces_an_output_file_and_keeps_its_mode(tmp_path, capsys):
    root, src = _stored_pentagon_file(tmp_path, capsys)
    out_file = tmp_path / "g.bin"
    out_file.write_bytes(b"old" * 10**5)
    out_file.chmod(0o640)
    link = tmp_path / "link.bin"
    link.symlink_to(out_file.name)
    code, out, _ = run(capsys, "store", "get", "--root", str(root), "--name", "f.bin",
                       "--output", str(link))
    assert (code, out) == (0, f"read {3 * 9 * 1024 - 10} bytes; degraded transfers: 0\n")
    assert link.is_symlink() and out_file.read_bytes() == src.read_bytes()
    assert stat.S_IMODE(out_file.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "g.bin", "link.bin", "store"]


def test_store_get_output_errors_name_the_output(tmp_path, capsys):
    root, _ = _stored_pentagon_file(tmp_path, capsys)
    for output, reason in [(tmp_path / "no" / "g.bin", "No such file or directory"),
                           (tmp_path, "Is a directory")]:
        code, out, err = run(capsys, "store", "get", "--root", str(root), "--name", "f.bin",
                             "--output", str(output))
        assert (code, out, err) == (1, "", f"error: {output}: {reason}\n")
    assert not (tmp_path / "no").exists()


def _drain(fifo: Path, into: list) -> threading.Thread:
    def read():
        with open(fifo, "rb") as fh:
            into.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader


def test_store_get_writes_a_fifo_in_place(tmp_path, capsys):
    root, src = _stored_pentagon_file(tmp_path, capsys)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = _drain(fifo, got)
    assert main(["store", "get", "--root", str(root), "--name", "f.bin",
                 "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [src.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_store_get_writes_dev_stdout_when_it_is_a_pipe(tmp_path, capsys):
    root, src = _stored_pentagon_file(tmp_path, capsys)
    env = dict(os.environ, PYTHONPATH=str(Path(polycode.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "polycode", "store", "get", "--root", str(root),
                           "--name", "f.bin", "--output", "/dev/stdout"],
                          env=env, capture_output=True, check=True)
    assert done.stdout == src.read_bytes() + b"read 27638 bytes; degraded transfers: 0\n"


def test_store_get_finishes_a_short_write(tmp_path, capsys, monkeypatch):
    root, src = _stored_pentagon_file(tmp_path, capsys)
    real = os.writev
    monkeypatch.setattr(os, "writev", lambda fd, buffers: real(fd, [bytes(buffers[0])[:10]]))
    out_file = tmp_path / "g.bin"
    assert main(["store", "get", "--root", str(root), "--name", "f.bin",
                 "--output", str(out_file)]) == 0
    assert out_file.read_bytes() == src.read_bytes()


def test_code_encode_reads_a_pipe(tmp_path, capsys):
    payload = random.Random(9).randbytes(5000)
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    code, out, _ = run(capsys, "code", "encode", "--scheme", "pentagon", "--input", str(fifo),
                       "--out-dir", str(tmp_path / "enc"))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 0 and out.startswith("encoded 5000 bytes into 10 blocks")
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    assert main(["code", "encode", "--scheme", "pentagon", "--input", str(src),
                 "--out-dir", str(tmp_path / "ref")]) == 0
    assert ((tmp_path / "enc" / "stripe.json").read_bytes()
            == (tmp_path / "ref" / "stripe.json").read_bytes())
    fifo_out = tmp_path / "out.fifo"
    os.mkfifo(fifo_out)
    got = []
    reader = _drain(fifo_out, got)
    assert main(["code", "decode", "--in-dir", str(tmp_path / "enc"), "--killed", "0,1",
                 "--output", str(fifo_out)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [payload]


@pytest.mark.parametrize("nodes", [513, 2**40])
def test_store_init_refuses_more_nodes_than_the_bound_before_making_a_directory(
    tmp_path, monkeypatch, capsys, nodes
):
    """A store has at most blockstore.MAX_NODES nodes, checked before any
    directory is made: a 2**40 init once made millions of them."""
    from polycode.blockstore import MAX_NODES

    assert MAX_NODES == 512
    root = tmp_path / "store"

    def no_mkdir(*args, **kwargs):
        raise AssertionError("a directory was made")

    with monkeypatch.context() as m:
        m.setattr(os, "mkdir", no_mkdir)
        m.setattr(Path, "mkdir", no_mkdir)
        code, out, err = run(capsys, "store", "init", "--root", str(root), "--scheme",
                             "pentagon", "--nodes", str(nodes), "--block-size", "64",
                             "--seed", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {nodes} nodes is more than the 512 a store can have\n"
    assert not root.exists()
    code, out, _ = run(capsys, "store", "init", "--root", str(root), "--scheme", "pentagon",
                       "--nodes", "512", "--block-size", "64", "--seed", "1")
    assert code == 0 and len(list(root.glob("n[0-9]*"))) == 512


def test_store_init_after_a_crashed_init(tmp_path, capsys):
    root = tmp_path / "store"
    (root / "n0").mkdir(parents=True)  # made before the crash; store.json never was
    code, out, err = run(capsys, "store", "init", "--root", str(root), "--scheme", "pentagon",
                         "--block-size", "1024", "--seed", "4")
    assert (code, err) == (0, "") and out.startswith("initialized pentagon store")
    src = tmp_path / "f.bin"
    src.write_bytes(random.Random(5).randbytes(12000))
    assert main(["store", "put", "--root", str(root), "--file", str(src)]) == 0
    out_file = tmp_path / "g.bin"
    assert main(["store", "get", "--root", str(root), "--name", "f.bin",
                 "--output", str(out_file)]) == 0
    assert out_file.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("spare", [len(".manifest.json"), 5])
def test_store_put_name_too_long_for_its_files_is_an_error(tmp_path, capsys, spare):
    # the first name leaves room for the manifest but not for the temp
    # manifest; the second for neither
    root = _pentagon_store(tmp_path, capsys)
    name = "x" * (os.pathconf(root, "PC_NAME_MAX") - spare)
    src = tmp_path / "f.bin"
    src.write_bytes(random.Random(6).randbytes(5000))
    code, out, err = run(capsys, "store", "put", "--root", str(root), "--file", str(src),
                         "--name", name)
    assert (code, out) == (1, "") and err.startswith("error:")
    assert not list(root.glob("*.manifest.json*"))
    code, out, _ = run(capsys, "store", "fsck", "--root", str(root))
    assert code == 0 and out.endswith("clean\n")


def test_store_put_missing_file_is_an_error(tmp_path, capsys):
    root = _pentagon_store(tmp_path, capsys)
    missing = tmp_path / "missing.bin"
    code, out, err = run(capsys, "store", "put", "--root", str(root), "--file", str(missing))
    assert (code, out) == (1, "")
    assert err == f"error: {missing}: No such file or directory\n"
    assert not list(root.rglob("*.blk"))


def test_code_encode_missing_input_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.bin"
    code, out, err = run(capsys, "code", "encode", "--scheme", "pentagon",
                         "--input", str(missing), "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == f"error: {missing}: No such file or directory\n"
    assert not (tmp_path / "out").exists()


def test_report_missing_input_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, out, err = run(capsys, "report", "--kind", "locality-summary", "--input", str(missing))
    assert (code, out) == (1, "")
    assert err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("option", ["--mttf-hours", "--mttr-hours"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_sim_reliability_refuses_hours_that_are_not_positive_and_finite(capsys, option, value):
    code, out, err = run(capsys, "sim", "reliability", "--scheme", "pentagon", "--seed", "1",
                         "--trials", "100", option, value)
    assert (code, out) == (1, "")
    assert err == "error: MTTF and MTTR hours must be positive and finite\n"


@pytest.mark.parametrize("trials,message", [
    ("-1", "need at least 100 trials for a meaningful CI"),  # checked before any chain is solved
    ("100", "the MTTDL is beyond the float range, over 1.8e+308 hours"),
], ids=["trials", "mttdl"])
def test_sim_reliability_refuses_an_mttdl_beyond_the_float_range(capsys, trials, message):
    code, out, err = run(capsys, "sim", "reliability", "--scheme", "pentagon", "--seed", "1",
                         "--mttr-hours", "1e-300", "--trials", trials)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_report_locality_summary_names_the_columns_its_input_lacks(tmp_path, capsys):
    detail = tmp_path / "ab.csv"
    detail.write_text("a,b\n1,2\n")
    code, out, err = run(capsys, "report", "--kind", "locality-summary", "--input", str(detail))
    assert (code, out) == (1, "")
    assert err == (f"error: {detail} lacks the locality columns scheme, scheduler, nodes, slots,"
                   " load_pct, seed, tasks, local_tasks, locality_pct, remote_blocks\n")


@pytest.mark.parametrize("row,cell", [
    ("pentagon,delay,x,2,100,1,10,5,50.0,5", "nodes is not a number: 'x'"),
    ("pentagon,delay,5,2,100,1,10,5,50.0", "remote_blocks is not a number: None"),  # short row
])
def test_report_locality_summary_refuses_a_cell_that_is_not_a_number(tmp_path, capsys, row, cell):
    detail = tmp_path / "detail.csv"
    header = "scheme,scheduler,nodes,slots,load_pct,seed,tasks,local_tasks,locality_pct,remote_blocks"
    detail.write_text(f"{header}\npentagon,delay,5,2,100,0,10,5,50.0,5\n{row}\n")
    code, out, err = run(capsys, "report", "--kind", "locality-summary", "--input", str(detail))
    assert (code, out) == (1, "")
    assert err == f"error: {detail} line 3: {cell}\n"


_STORE = ["--root", "s"]
_DECODE = ["code", "decode", "--in-dir", "stripe", "--output", "out"]
_GET = ["get", *_STORE, "--name", "f", "--output", "o"]
_READS_MANIFEST = (["fsck", *_STORE], _GET, ["repair", *_STORE])
_READS_STORE_JSON = (["put", *_STORE, "--file", "f", "--name", "g"], _GET,
                     ["kill", *_STORE, "--node", "0"], ["revive", *_STORE, "--node", "0"],
                     ["fsck", *_STORE], ["repair", *_STORE])


@pytest.mark.parametrize("target,text,argv", [
    ("stripe/stripe.json", "{}", _DECODE),
    ("stripe/stripe.json", None, _DECODE),
    ("s/f.manifest.json", '{"file":"f"}', ["store", "fsck", *_STORE]),
    ("s/f.manifest.json", '{"file":"f"}', ["store", *_GET]),
    *[("s/store.json", "[]", ["store", *argv]) for argv in _READS_STORE_JSON],
    *[("s/f.manifest.json", order, ["store", *argv])
      for order in ([0, 0, 2, 3, 4], [0, 1, 2, 3, 9]) for argv in _READS_MANIFEST],
    ("stripe/stripe.json", "not json", _DECODE),
    ("stripe/stripe.json", b"\xff\xfe", _DECODE),
    *[("stripe/stripe.json", nodes, _DECODE) for nodes in ([0], [0, 1, 2], [1, 0], [5, 4])],
    # a bool is no integer, though Python counts it as one
    *[("s/f.manifest.json", edit, ["store", *argv])
      for edit in ({"size": True}, {"size": False}, {"block_size": True})
      for argv in _READS_MANIFEST],
    *[("stripe/stripe.json", {"original_size": flag}, _DECODE) for flag in (True, False)],
    *[("s/store.json", edit, ["store", *argv])
      for edit in ({"nodes": True}, {"block_size": True}, {"seed": True}, {"down": [True]})
      for argv in _READS_STORE_JSON],    # a manifest whose block size (64 in this store) or scheme is not the store's
    *[("s/f.manifest.json", edit, ["store", *argv])
      for edit in ({"block_size": 2048}, {"scheme": "5-rep"}) for argv in _READS_MANIFEST],
    # a scheme that names none
    *[("s/store.json", {"scheme": "bogus"}, ["store", *argv]) for argv in _READS_STORE_JSON],
    ("stripe/stripe.json", {"scheme": "bogus"}, _DECODE),
])
def test_malformed_metadata_is_an_error_that_names_its_file(tmp_path, monkeypatch, capsys,
                                                              target, text, argv):
    """A stripe.json, manifest or store.json that is not JSON or lacks a
    field the command reads is refused by name, with no traceback.  text
    None: drop the "nodes" of one block entry; a list: the "nodes" of
    stripe.json's block 3 (edge (0, 4)), of the wrong length, naming node
    1 as a second slot or a second node for slot 0, or the node_order of
    the manifest's stripe, which repeats a node or names one outside the
    store; a dict: top-level fields set to a bool, a down list that holds
    one, or a scheme that names none.  Nothing is written."""
    monkeypatch.chdir(tmp_path)
    Path("f").write_bytes(random.Random(3).randbytes(300))
    setups = (
        ["store", "init", *_STORE, "--scheme", "pentagon", "--block-size", "64", "--seed", "1"],
        ["store", "put", *_STORE, "--file", "f"],
        ["code", "encode", "--scheme", "pentagon", "--input", "f", "--out-dir", "stripe"],
    )
    for setup in setups:
        assert run(capsys, *setup)[0] == 0
    if text is None:
        meta = json.loads(Path(target).read_text())
        del meta["blocks"]["3"]["nodes"]
        text = json.dumps(meta)
    elif isinstance(text, list):
        meta = json.loads(Path(target).read_text())
        if "blocks" in meta:
            meta["blocks"]["3"]["nodes"] = text
        else:
            meta["stripes"][0]["node_order"] = text
        text = json.dumps(meta)
    elif isinstance(text, dict):
        text = json.dumps(dict(json.loads(Path(target).read_text()), **text))
    Path(target).write_bytes(text if isinstance(text, bytes) else text.encode())
    before = {p: p.read_bytes() for p in Path("s").glob("n*/*")}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith(f"error: {target} is malformed"), err
    assert {p: p.read_bytes() for p in Path("s").glob("n*/*")} == before
    assert not Path("o").exists() and not Path("out").exists()


@pytest.mark.parametrize("size", [-5, -1, 5185])
def test_store_refuses_a_manifest_size_its_stripes_cannot_hold(tmp_path, monkeypatch, capsys,
                                                                size):
    """A manifest's size below 0 or past what its 9 stripes of 9 data
    blocks of 64 bytes hold is refused by name by every command that reads
    the manifest: -5 used to make get write 1,019 of the 5,000 bytes with
    exit 0."""
    monkeypatch.chdir(tmp_path)
    Path("f").write_bytes(random.Random(4).randbytes(5000))
    for setup in (["store", "init", *_STORE, "--scheme", "pentagon", "--block-size", "64",
                   "--seed", "1"], ["store", "put", *_STORE, "--file", "f"]):
        assert run(capsys, *setup)[0] == 0
    target = Path("s/f.manifest.json")
    meta = json.loads(target.read_text())
    assert (meta["size"], len(meta["stripes"])) == (5000, 9)
    meta["size"] = size
    target.write_text(json.dumps(meta))
    for argv in (_GET, ["fsck", *_STORE], ["repair", *_STORE]):
        code, out, err = run(capsys, "store", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {target} is malformed: its size is not an integer in 0..5184\n"
    assert not Path("o").exists()


_GONE = object()  # an edit that deletes the field


def test_every_edit_of_a_metadata_field_reads_alike_or_is_refused_by_name(tmp_path,
                                                                           monkeypatch, capsys):
    """Each field of store.json, of the manifest (its top level and stripe
    0's record) and of stripe.json (its top level and block 3's entry), as
    a one-file pentagon store and ``code encode`` wrote them, is deleted or
    set to each of true, 1.5, "1", -1, 2**62 + 1, null and [] in turn, and
    every command that reads the file runs on a fresh copy.  Each run reads
    the file alike, exit 0 with the stdout and output bytes of the unedited
    run, or refuses it on one line that names the file and a field (or
    the file as a whole), and changes no node file."""
    base = tmp_path / "base"
    base.mkdir()
    monkeypatch.chdir(base)
    Path("f").write_bytes(random.Random(5).randbytes(300))
    for setup in (["store", "init", *_STORE, "--scheme", "pentagon", "--block-size", "64",
                   "--seed", "1"], ["store", "put", *_STORE, "--file", "f"],
                  ["code", "encode", "--scheme", "pentagon", "--input", "f",
                   "--out-dir", "stripe"]):
        assert run(capsys, *setup)[0] == 0
    store = [["store", *argv] for argv in _READS_STORE_JSON]
    manifest = [["store", *argv] for argv in _READS_MANIFEST]
    targets = [("s/store.json", (), store), ("s/f.manifest.json", (), manifest),
               ("s/f.manifest.json", ("stripes", 0), manifest),
               ("stripe/stripe.json", (), [_DECODE]),
               ("stripe/stripe.json", ("blocks", "3"), [_DECODE])]
    runs = itertools.count()

    def run_on_a_copy(argv, target=None, text=None):
        """(exit code, stdout, stderr, the output file's bytes or None), and
        whether the node files are as they were."""
        case = tmp_path / str(next(runs))
        shutil.copytree(base, case)
        monkeypatch.chdir(case)
        if target is not None:
            Path(target).write_text(text)
        before = {p: p.read_bytes() for p in Path("s").glob("n*/*")}
        code, out, err = run(capsys, *argv)
        output = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
        kept = {p: p.read_bytes() for p in Path("s").glob("n*/*")} == before
        return code, out, err, output.read_bytes() if output and output.exists() else None, kept

    unedited = {tuple(argv): run_on_a_copy(argv)[:4] for _, _, argvs in targets for argv in argvs}
    assert all(code == 0 for code, *_ in unedited.values())
    outcomes = Counter()
    for target, where, argvs in targets:
        meta = json.loads((base / target).read_text())
        obj = meta
        for key in where:
            obj = obj[key]
        for field in list(obj):
            for edit in (_GONE, True, 1.5, "1", -1, 2**62 + 1, None, []):
                saved = obj.pop(field)
                if edit is not _GONE:
                    obj[field] = edit
                text = json.dumps(meta)
                obj[field] = saved
                for argv in argvs:
                    code, out, err, output, kept = run_on_a_copy(argv, target, text)
                    case = (target, where, field, edit, argv)
                    if code == 0:
                        assert (out, err, output) == unedited[tuple(argv)][1:], case
                    else:
                        assert (code, out, output, kept) == (1, "", None, True), case
                        assert re.fullmatch(rf"error: {re.escape(target)} is malformed:"
                                            rf" (its [\w.\[\]]+|it) [^\n]+\n", err), (case, err)
                    outcomes[target, code] += 1
    assert outcomes == {("s/store.json", 0): 23, ("s/store.json", 1): 217,
                        ("s/f.manifest.json", 0): 27, ("s/f.manifest.json", 1): 189,
                        ("stripe/stripe.json", 0): 9, ("stripe/stripe.json", 1): 55}


def test_sim_locality_csv(tmp_path, capsys):
    out_file = tmp_path / "loc.csv"
    argv = ["sim", "locality", "--scheme", "heptagon", "--nodes", "25", "--slots", "8",
            "--load", "100", "--scheduler", "delay", "--reps", "3", "--seed", "7",
            "--out", str(out_file)]
    assert main(argv) == 0
    first = out_file.read_bytes()
    assert first.startswith(
        b"scheme,scheduler,nodes,slots,load_pct,seed,tasks,local_tasks,locality_pct,remote_blocks\r\n"
    )
    rows = list(csv.DictReader(io.StringIO(first.decode())))
    assert len(rows) == 3
    assert all(r["scheme"] == "heptagon" and r["tasks"] == "200" for r in rows)
    # byte-stable across reruns
    assert main(argv) == 0
    assert out_file.read_bytes() == first


def test_sim_locality_requires_seed(capsys):
    code, *_ = run(capsys, "sim", "locality", "--scheme", "pentagon")
    assert code == 2


def test_sim_locality_summary(tmp_path, capsys):
    out_file = tmp_path / "sum.csv"
    assert main(["sim", "locality", "--scheme", "pentagon", "--scheduler", "delay,matching",
                 "--slots", "2", "--load", "50,100", "--reps", "2", "--seed", "1",
                 "--summary", "--out", str(out_file)]) == 0
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 4  # 2 schedulers x 2 loads
    assert rows[0]["reps"] == "2"


def test_sim_reliability_csv(tmp_path, capsys):
    out_file = tmp_path / "rel.csv"
    argv = ["sim", "reliability", "--scheme", "2-rep,pentagon", "--mttf-hours", "100",
            "--mttr-hours", "10", "--trials", "300", "--seed", "5", "--out", str(out_file)]
    assert main(argv) == 0
    first = out_file.read_bytes()
    rows = list(csv.DictReader(io.StringIO(first.decode())))
    assert [r["scheme"] for r in rows] == ["2-rep", "pentagon"]
    assert main(argv) == 0
    assert out_file.read_bytes() == first


def test_sim_reliability_mttf_defaults_to_four_years(capsys):
    argv = ["sim", "reliability", "--scheme", "2-rep,pentagon", "--mttr-hours", "5000",
            "--trials", "100", "--seed", "3"]
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--mttf-hours", "35040") == default  # 4 x 8760
    source = Path(cli.__file__).read_text()
    assert "8760" not in source and "35040" not in source


def test_report_schemes(tmp_path, capsys):
    code, out, _ = run(capsys, "report", "--kind", "schemes")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_scheme = {r["scheme"]: r for r in rows}
    assert by_scheme["pentagon"]["storage_overhead"] == "2.222"
    assert by_scheme["pentagon"]["tolerance"] == "2"
    assert by_scheme["heptagon-local"]["code_length"] == "15"


def test_report_locality_summary(tmp_path):
    detail = tmp_path / "detail.csv"
    main(["sim", "locality", "--scheme", "pentagon", "--scheduler", "delay",
          "--slots", "2", "--load", "100", "--reps", "4", "--seed", "3",
          "--out", str(detail)])
    out_file = tmp_path / "summary.csv"
    assert main(["report", "--kind", "locality-summary", "--input", str(detail),
                 "--out", str(out_file)]) == 0
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 1
    assert rows[0]["reps"] == "4"


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=heptagon\nreps=2\n")
    out_file = tmp_path / "a.csv"
    assert main(["sim", "locality", "--config", str(cfg), "--seed", "1",
                 "--out", str(out_file)]) == 0
    rows = list(csv.DictReader(out_file.open()))
    assert all(r["scheme"] == "heptagon" for r in rows)
    assert len(rows) == 2
    # explicit flag beats the config value
    assert main(["sim", "locality", "--config", str(cfg), "--scheme", "pentagon",
                 "--seed", "1", "--out", str(out_file)]) == 0
    rows = list(csv.DictReader(out_file.open()))
    assert all(r["scheme"] == "pentagon" for r in rows)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_option=1\n")
    code, _, err = run(capsys, "sim", "locality", "--config", str(cfg), "--scheme", "pentagon", "--seed", "1")
    assert code == 2
    assert "bogus_option" in err


@pytest.mark.parametrize("line, flag, message", [
    ("reps=abc", "--reps", "usage error: argument --reps: invalid int value: 'abc'\n"),
    ("mode=bogus", "--mode", "usage error: argument --mode: invalid choice: 'bogus'"
                             " (choose from 'parallel', 'serial')\n"),
])
def test_config_values_are_checked_as_flags_are(tmp_path, capsys, line, flag, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    key = "sim locality" if flag == "--reps" else "sim reliability"
    argv = [*key.split(), "--scheme", "pentagon", "--seed", "1"]
    assert run(capsys, *argv, "--config", str(cfg)) == (2, "", message)
    value = line.partition("=")[2]
    assert run(capsys, *argv, flag, value) == (2, "", message)  # the same line as the flag's


def test_config_may_stand_anywhere_and_reads_either_key_spelling(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nscheme = pentagon\ndelay-rounds=2\nreps=1\nsummary=true\n"
                   "seed=3\n")
    plain = run(capsys, "sim", "locality", "--scheme", "pentagon", "--delay-rounds", "2",
                "--reps", "1", "--summary", "--seed", "3")
    assert plain[0] == 0 and plain[1].startswith("scheme,scheduler,")
    for argv in (["sim", "locality", "--config", str(cfg)],
                 ["sim", "--config", str(cfg), "locality"],
                 ["--config", str(cfg), "sim", "locality"],
                 [f"--config={cfg}", "sim", "locality"],
                 ["sim", "locality", f"--config={cfg}"]):
        assert run(capsys, *argv) == plain, argv
    cfg.write_text("scheme=pentagon\ndelay_rounds=2\nreps=1\nsummary=true\nseed=3\n")
    assert run(capsys, "sim", "locality", "--config", str(cfg)) == plain
    # flags on the line beat the file's values, a switch set false among them
    cfg.write_text("scheme=heptagon\ndelay_rounds=2\nreps=1\nsummary=false\nseed=4\n")
    assert run(capsys, "sim", "locality", "--config", str(cfg), "--scheme", "pentagon",
               "--summary", "--seed", "3") == plain


def test_an_abbreviated_config_flag_reads_its_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scheme=heptagon\n")
    full = run(capsys, "--config", str(cfg), "code", "info")
    assert full[0] == 0 and full[1].startswith("scheme: heptagon\n")
    for argv in (["--conf", str(cfg), "code", "info"], [f"--co={cfg}", "code", "info"],
                 ["code", "--c", str(cfg), "info"], ["code", "info", "--confi", str(cfg)]):
        assert run(capsys, *argv) == full, argv
    # sound only while no leaf flag is itself a '--c' abbreviation
    assert not [flag for options in cli.COMMANDS.values() for flag, _ in options
                if flag.startswith("--c")]


def test_a_config_file_that_is_not_utf8_is_a_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert run(capsys, "code", "info", "--config", str(cfg)) == (
        2, "", f"usage error: config file {cfg} is not UTF-8 text\n")


def test_emit_report_header_only_and_stability(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], path, ["a", "b"])
    assert path.read_bytes() == b"a,b\r\n"
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 0.1}]
    emit_report(rows, path, ["a", "b"])
    first = path.read_bytes()
    emit_report(rows, path, ["a", "b"])
    assert path.read_bytes() == first
    with pytest.raises(ValueError):
        emit_report([{"a": 1}], path, ["a", "b"])


@pytest.mark.parametrize("key", list(cli.COMMANDS))
def test_path_only_build_gives_the_full_tree_usage_errors(key, tmp_path, capsys):
    # every malformed argv naming a leaf, config tokens anywhere, exits 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("bogus=1\n")
    empty_cfg = tmp_path / "empty.cfg"
    empty_cfg.write_text("")
    words = key.split()
    cases = [
        words,  # a missing required flag
        [*words, "--bogus"],
        ["--config", str(bad_cfg), *words],
        [*words, "--config", str(bad_cfg)],
        ["--config", str(empty_cfg), *words],
        [*words, "--config", str(empty_cfg)],
    ]
    cases += [[*words, flag, "bogus"] for flag, kw in cli.COMMANDS[key] if "choices" in kw]
    if len(words) == 2:  # a config between the command words: its leaf lacks a flag
        cases.append([words[0], "--config", str(empty_cfg), words[1]])
    for argv in cases:
        assert run(capsys, *argv)[0] == 2, argv


def test_cli_reads_no_private_attribute_of_argparse():
    """cli.py uses argparse through its public API alone: the only
    underscore attributes it reads belong to the package's own modules."""
    own = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
    private = [
        f"{ast.unparse(node)}:{node.lineno}"
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in own)
    ]
    assert private == []


def test_a_leaf_command_builds_only_the_parsers_on_its_path(tmp_path, monkeypatch, capsys):
    root = tmp_path / "store"
    src = tmp_path / "f.bin"
    src.write_bytes(b"polycode" * 100)
    assert main(["store", "init", "--root", str(root), "--scheme", "pentagon",
                 "--block-size", "256", "--seed", "1"]) == 0
    assert main(["store", "put", "--root", str(root), "--file", str(src)]) == 0
    built = []
    parser_class = cli._parser_class()
    real_init = parser_class.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(parser_class, "__init__", counting_init)
    out_file = tmp_path / "g.bin"
    assert main(["store", "get", "--root", str(root), "--name", "f.bin",
                 "--output", str(out_file)]) == 0
    assert out_file.read_bytes() == src.read_bytes()
    assert built == []  # a plain argv is parsed from COMMANDS
    out_file.unlink()
    cfg = tmp_path / "get.cfg"
    cfg.write_text(f"output={out_file}\n")
    assert main(["store", "get", "--config", str(cfg), "--root", str(root),
                 "--name", "f.bin"]) == 0
    assert out_file.read_bytes() == src.read_bytes()
    assert built, "a --config argv is parsed by argparse"


# -- the plain-argv fast path -----------------------------------------------

# values that argparse reads as values and as something else, that convert
# and that fail to
VALUES = ["-", "", "0", "7", "-3", "-0.5", "2.5", "1e3", "abc", "a b", "x=1", "--",
          "parallel", "serial", "schemes", "locality-summary", "-x", "--root", "-h"]


def _same_namespace(fast, slow):
    # by repr: NaN equals itself and 1 differs from True
    assert repr(sorted(vars(fast).items())) == repr(sorted(vars(slow).items()))


def _argparse_namespace(argv):
    return cli.build_parser().parse_args(argv)


def _plain_value(kwargs) -> str:
    if "choices" in kwargs:
        return kwargs["choices"][-1]
    return {int: "3", float: "1.5"}.get(kwargs.get("type"), "x")


@st.composite
def _argvs(draw):
    key = draw(st.sampled_from(list(cli.COMMANDS)))
    options = cli.COMMANDS[key]
    flags = [flag for flag, _ in options]
    tokens = []
    for flag, kwargs in options:
        if not draw(st.integers(0, 7)):  # leave out about one in eight
            continue
        tokens.append([flag])
        if kwargs.get("action") != "store_true":
            plain = _plain_value(kwargs)
            tokens[-1].append(draw(st.one_of(
                st.just(plain), st.just(plain), st.sampled_from(VALUES),
                st.integers(-5, 99).map(str), st.text(max_size=3),
            )))
    tokens = draw(st.permutations(tokens))
    odd = st.one_of(
        st.sampled_from(flags).map(lambda f: [f, _plain_value(dict(options)[f])]),  # duplicates
        st.sampled_from(flags).map(lambda f: [f]),
        st.sampled_from(flags).map(lambda f: [f"{f}=1"]),
        st.sampled_from(flags).map(lambda f: [f[:-1]]),  # an abbreviation
        st.sampled_from(VALUES).map(lambda v: [v]),
        st.sampled_from(["--config", "-h", "--help", "--bogus", "--kind"]).map(lambda f: [f]),
    )
    for extra in draw(st.lists(odd, max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    return [*key.split(), *(tok for group in tokens for tok in group)]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_fast_path_gives_what_argparse_gives(argv):
    fast = cli._parse_plain(argv)
    if fast is not None:
        _same_namespace(fast, _argparse_namespace(argv))


@pytest.mark.parametrize("key", list(cli.COMMANDS))
def test_every_leaf_with_its_flags_takes_the_fast_path(key):
    required = [key.split()]
    every = [key.split()]
    for flag, kwargs in cli.COMMANDS[key]:
        pair = [flag] if kwargs.get("action") == "store_true" else [flag, _plain_value(kwargs)]
        every.append(pair)
        if kwargs.get("required"):
            required.append(pair)
    for argv in (required, every, [every[0], *reversed(every[1:])]):
        argv = [tok for group in argv for tok in group]
        fast = cli._parse_plain(argv)
        assert fast is not None, argv
        _same_namespace(fast, _argparse_namespace(argv))


@pytest.mark.parametrize("argv", [
    ["store", "get", "--root", "r", "--name", "n"],  # a required flag missing
    ["store", "get", "--root", "r", "--name", "n", "--output"],
    ["store", "get", "--root", "r", "--name", "n", "--out", "o"],  # an abbreviation
    ["store", "get", "--root=r", "--name", "n", "--output", "o"],
    ["store", "kill", "--root", "r", "--node", "-1"],
    ["store", "kill", "--root", "r", "--node", "one"],
    ["store", "kill", "--root", "r", "--node", "1", "--node", "x"],
    ["store", "kill", "--root", "r", "--node", "x", "--node", "1"],
    ["store", "kill", "--root", "r", "--node", "1", "extra"],
    ["store", "fsck", "--root", "r", "--config", "c"],
    ["--config", "c", "store", "fsck", "--root", "r"],
    ["store", "fsck", "--root", "r", "-h"],
    ["store", "fsck", "--"],
    ["report", "--kind", "bogus"],
    ["store"], ["store", "bogus"], ["report", "report"], [],
])
def test_other_argv_is_left_to_argparse(argv):
    assert cli._parse_plain(argv) is None


# -- the argv contract ------------------------------------------------------

# What the contract test puts where a command reads a file, by kind; "data"
# is a small valid input and "missing" no file at all.
_BROKEN = {"empty": b"", "binary": bytes(range(256)), "object": b"{}", "list": b"[]",
           "csv": b"a,b\n1\n"}
_FLOATS = ["0", "-1", "nan", "inf", "1e-300", "0.5", "10", "100"]
_SCHEME_NAMES = st.sampled_from(["pentagon", "heptagon-local", "2-rep", "raidm-3", "bogus", ""])


def _listed(items):
    """Comma lists of *items*, with empty and repeated entries."""
    return st.lists(st.one_of(items, st.just("")), max_size=2).map(",".join)


_INT_LIST = _listed(st.integers(-1, 20).map(str))
_INPUT = st.sampled_from(["missing", "data", *_BROKEN])
# a value strategy for every flag in cli.COMMANDS; counts stay small so
# that each command does little work
_CONTRACT_VALUES = {
    "--scheme": _SCHEME_NAMES,
    "--input": _INPUT,
    "--file": _INPUT,
    "--root": st.sampled_from(["missing", "dir", "store", "degraded",
                               *(f"store.json={k}" for k in _BROKEN),
                               *(f"manifest={k}" for k in _BROKEN)]),
    "--in-dir": st.sampled_from(["missing", "dir", "stripe",
                                 *(f"stripe.json={k}" for k in _BROKEN)]),
    "--out-dir": st.sampled_from(["new", "dir", "file"]),
    "--output": st.sampled_from(["new", "dir", "nodir"]),
    "--out": st.sampled_from(["-", "new", "dir", "nodir"]),
    "--block-size": st.integers(-2, 64).map(str),
    "--killed": _INT_LIST,
    "--failed": _INT_LIST,
    "--nodes": st.integers(-2, 64).map(str),
    "--seed": st.integers(-5, 2**32).map(str),
    "--name": st.sampled_from(["f", "g", "", "..", "a/b"]),
    "--node": st.integers(-2, 16).map(str),
    "--scheduler": _listed(st.sampled_from(["matching", "delay", "peeling", "bogus"])),
    "--slots": _listed(st.integers(-1, 8).map(str)),
    "--load": _listed(st.sampled_from([*_FLOATS, "200", "201"])),
    "--reps": st.integers(-1, 2).map(str),
    "--stripes": st.integers(-1, 64).map(str),
    "--delay-rounds": st.integers(-2, 3).map(str),
    "--summary": st.none(),
    "--mttf-hours": st.sampled_from(_FLOATS),
    "--mttr-hours": st.sampled_from(_FLOATS),
    "--mode": st.sampled_from(["parallel", "serial", "bogus"]),
    "--trials": st.sampled_from(["-1", "0", "99", "100", "120"]),
    "--threads": st.integers(-2, 2).map(str),
    "--kind": st.sampled_from(["schemes", "locality-summary", "bogus"]),
}
_ALWAYS = {"--trials", "--reps"}  # their defaults (1000 trials, 20 reps) take seconds
_PATHS = {"--input", "--file", "--root", "--in-dir", "--out-dir", "--output", "--out"}


# a --config file: what it holds, where it stands and how its flag is spelt
_CONFIGS = st.one_of(st.none(), st.tuples(
    st.sampled_from(["valid", "missing", "empty", "not-utf8", "unknown-key", "bad-value"]),
    st.sampled_from(["before", "between", "after"]),
    st.sampled_from(["--config", "--conf", "--config="]),
))


@st.composite
def _contract_argvs(draw):
    """A leaf command and a value, or a kind of file, for each of its
    flags, and maybe a config file."""
    key = draw(st.sampled_from(list(cli.COMMANDS)))
    given = {}
    for flag, kwargs in cli.COMMANDS[key]:
        if kwargs.get("required") or flag in _ALWAYS or draw(st.integers(0, 3)):
            values = _CONTRACT_VALUES[flag]
            if flag == "--scheme" and key.startswith("sim"):
                values = _listed(_SCHEME_NAMES)
            given[flag] = draw(values)
    if key == "sim reliability" and int(given["--trials"]) >= 100:
        # an MTTR of at least a tenth of the MTTF keeps trials short, as in
        # STRESS_MODEL; at the 4-year default one trial takes minutes
        mttf = given.setdefault("--mttf-hours", "100")
        mttr = given.get("--mttr-hours", "24")
        if 0 < float(mttf) < float("inf") and 0 < float(mttr) < 0.1 * float(mttf):
            given["--mttr-hours"] = mttf
    return key, given, draw(_CONFIGS)


def _config_argv(key, argv, config, d: Path) -> list[str]:
    """*argv* with a config file of the *config* kind put under *d*, and its
    flag placed and spelt as *config* says; a valid file takes over the
    last flag of *argv* after the command words, if there is one."""
    kind, place, spelling = config
    words = key.split()
    path = d / "c.cfg"
    rest = argv[len(words):]
    if kind == "valid":
        text = ""
        if rest:
            flag = max(i for i, tok in enumerate(rest) if tok.startswith("--"))
            value = rest[flag + 1:] or ["true"]  # a switch
            text = f"{rest[flag][2:]}={value[0]}\n"
            rest = rest[:flag]
        path.write_text(text)
    elif kind == "bad-value":
        typed = [flag for flag, kw in cli.COMMANDS[key] if "type" in kw or "choices" in kw]
        path.write_text(f"{typed[0][2:]}=bogus\n" if typed else "no key and value\n")
    elif kind != "missing":
        path.write_bytes({"empty": b"", "not-utf8": b"\xff\xfe", "unknown-key": b"bogus=1\n"}[kind])
    tokens = [f"{spelling}{path}"] if spelling.endswith("=") else [spelling, str(path)]
    at = {"before": 0, "between": 1, "after": len(words)}[place]
    return [*words[:at], *tokens, *words[at:], *rest]


def _make_input(flag: str, kind: str, d: Path) -> str:
    """Put a file or directory of *kind* under *d* for *flag*; its path."""
    path = d / flag.lstrip("-")
    data = random.Random(1).randbytes(200)
    if kind in ("missing", "new"):
        return str(path)
    if kind == "-":
        return kind
    if kind in ("dir", "nodir"):
        path.mkdir()
        return str(path / "x" / "o" if kind == "nodir" else path)
    if flag in ("--root", "--in-dir") and kind != "dir":
        what, _, broken = kind.partition("=")
        if flag == "--root":
            from polycode.blockstore import BlockStore

            store = BlockStore.create(path, schemes.Polygon(5), 5, 16, seed=1)
            (d / "f").write_bytes(data)
            store.put(d / "f")
            if what == "degraded":
                store.kill_node(0)
            target = path / {"manifest": "f.manifest.json"}.get(what, "store.json")
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                (d / "f").write_bytes(data)
                assert main(["code", "encode", "--scheme", "pentagon", "--input", str(d / "f"),
                             "--out-dir", str(path)]) == 0
            target = path / "stripe.json"
        if broken:
            target.write_bytes(_BROKEN[broken])
        return str(path)
    path.write_bytes(data if kind in ("data", "file") else _BROKEN[kind])
    return str(path)


@settings(max_examples=200, deadline=None)
@given(_contract_argvs())
@example(("sim reliability", {"--scheme": "pentagon", "--mttr-hours": "1e-300", "--trials": "-1",
                              "--seed": "0"}, None))  # once an OverflowError traceback
def test_every_argv_ends_in_exit_0_1_or_2_with_an_error_line(drawn):
    """Any leaf command, with any values for its flags and any of the
    inputs a user can hand it, exits 0, 1 or 2; a non-zero exit writes
    ``error:`` or ``usage error:`` first on stderr, and no traceback."""
    key, given, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        argv = key.split()
        for flag, value in given.items():
            if flag in _PATHS:
                value = _make_input(flag, value, Path(tmp))
            argv += [flag] if value is None else [flag, value]
        if config is not None:
            argv = _config_argv(key, argv, config, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().startswith(("error:", "usage error:")), (argv, err.getvalue())
    if config is not None and config[0] not in ("valid", "empty"):
        assert code == 2, (argv, err.getvalue())
