"""The recorded-OS seam (``helpers.RecordedOS``) and what runs on it: the
guard on what it records, its fault model, and every read fault of the
commands that read a store or a stripe."""

import contextlib
import errno
import io
import os
import random
import re
import shutil

import pytest

from polycode import blockstore, cli, codes, schemes
from polycode.codes import UnrecoverableError

from helpers import RecordedOS, file_calls

BS = 1024


def test_the_recorder_wraps_every_file_call_of_the_store_and_the_output():
    """Every file call that ``blockstore`` makes, as
    ``test_block_files_are_opened_and_removed_by_three_helpers_only`` finds
    them, and every one by which the CLI writes an output, is recorded or
    left out with a reason: a new one (an ``os.fsync``, say) fails here
    until the recorder logs it."""
    found = set().union(*file_calls(blockstore).values())
    output = file_calls(cli)
    found |= output["_write_output"] | output["_writev_all"]
    wrapped = {"open"} | {f"os.{name}" for name in RecordedOS.WRAPPED}
    assert found - wrapped == set(RecordedOS.UNRECORDED)


def test_a_failed_read_leaves_its_range_unreadable_until_it_is_rewritten(tmp_path, monkeypatch):
    """The k-th matching call fails, and so does every later read that
    overlaps its range, as a latent sector error does, until a write
    covers it: the sector is remapped.  A short write moves its count and
    then fails."""
    path = tmp_path / "f"
    path.write_bytes(bytes(range(100)))
    with RecordedOS(monkeypatch, tmp_path) as rec:
        rec.fail(lambda c: c.op == "pread", k=1)
        fd = os.open(path, os.O_RDWR)
        assert os.pread(fd, 10, 0) == bytes(range(10))
        with pytest.raises(OSError) as failed:
            os.pread(fd, 10, 20)  # the second pread: [20, 30) goes bad
        assert failed.value.errno == errno.EIO and failed.value.filename is None
        assert os.pread(fd, 10, 0) == bytes(range(10))  # outside it
        for offset in (15, 25, 29):
            with pytest.raises(OSError):
                os.pread(fd, 6, offset)
        assert os.pwrite(fd, b"x" * 5, 20) == 5  # remaps [20, 25)
        assert os.pread(fd, 5, 20) == b"x" * 5
        with pytest.raises(OSError):
            os.pread(fd, 5, 25)
        rec.fail(lambda c: c.op == "pwrite", error=errno.ENOSPC, short=lambda n: n // 2)
        with pytest.raises(OSError):
            os.pwrite(fd, b"y" * 10, 25)  # writes [25, 30), remapping it, then fails
        assert os.pread(fd, 10, 20) == b"x" * 5 + b"y" * 5
        os.close(fd)
    assert [c.op for c in rec.calls] == ["open", *["pread"] * 6, "pwrite", "pread", "pread",
                                         "pwrite", "pread", "close"]
    assert [(c.path, c.offset, c.length) for c in rec.calls[1:3]] == [("f", 0, 10), ("f", 20, 10)]
    assert [c.result for c in rec.calls if c.op == "pwrite"][0] == 5
    assert isinstance(rec.calls[-3].result, OSError)  # the short pwrite
    assert path.read_bytes()[20:30] == b"x" * 5 + b"y" * 5


# -- every read fault of get, fsck, repair and decode ------------------------


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def stripes(tmp_path_factory):
    """Per scheme, a directory with a one-stripe file ``f``, a store ``s``
    that holds it and its ``code encode`` stripe ``stripe``, 1 KiB blocks."""
    made = {}
    for name in ("pentagon", "heptagon-local"):
        base = tmp_path_factory.mktemp(name)
        scheme = schemes.parse_scheme(name)
        (base / "f").write_bytes(random.Random(17).randbytes(scheme.data_block_count * BS - 100))
        for argv in (["store", "init", "--root", "s", "--scheme", name, "--block-size", str(BS),
                      "--seed", "3"], ["store", "put", "--root", "s", "--file", "f"],
                     ["code", "encode", "--scheme", name, "--input", "f", "--out-dir", "stripe",
                      "--block-size", str(BS)]):
            assert run([str(base / a) if a in ("s", "f", "stripe") else a for a in argv])[0] == 0
        made[name] = base
    return made


def test_one_unreadable_block_costs_only_its_own_replica(stripes, tmp_path, monkeypatch):
    """With nodes 0 and 1 down, ``get`` fails to read one replica on node
    2, which stays unreadable.  ``fsck`` and ``repair`` read node 2's run
    of the stripe in one call, which fails over that range, and then each
    of its blocks alone, so they lose that one replica, not the run: the
    stripe that ``get`` served is repaired."""
    base = tmp_path / "base"
    shutil.copytree(stripes["pentagon"], base, ignore=shutil.ignore_patterns("stripe"))
    root, out = str(base / "s"), str(base / "out")
    for node in ("0", "1"):
        assert run(["store", "kill", "--root", root, "--node", node])[0] == 0
    with RecordedOS(monkeypatch, base) as rec:
        rec.fail(lambda c: c.op in ("pread", "preadv") and c.path == "s/n2/blocks.blk"
                 and c.offset < 3 * BS and 2 * BS < c.offset + c.length)
        code, text, err = run(["store", "get", "--root", root, "--name", "f", "--output", out])
        assert (code, err) == (0, "") and (base / "out").read_bytes() == (base / "f").read_bytes()
        assert {c[:4] for c in rec.calls if c.op != "open" and c.reads  # one block's replica
                and isinstance(c.result, OSError)} == {("pread", "s/n2/blocks.blk", 2 * BS, BS)}
        code, text, err = run(["store", "fsck", "--root", root])
        assert (code, err) == (0, "")
        assert "missing: 2\ncorrupt: 1\nunreadable: 1\nfatal_stripes: 0\n" in text, text
        code, text, err = run(["store", "repair", "--root", root])
        assert (code, err) == (0, "") and "plans_executed: 1\n" in text, (text, err)
        assert run(["store", "fsck", "--root", root])[1].endswith("clean\n")


def _damage(base, scheme, killed: list[int], call) -> tuple[set, set] | None:
    """The down slots and corrupt (block, slot) pairs that *killed* and the
    failed *call* leave, or None when it failed on a metadata file: an
    open that fails loses its file, and a read the replicas it overlaps."""
    geo = schemes._geometry(scheme)
    if call.path.startswith("s/"):
        stripe = blockstore.BlockStore(base / "s").load_manifest("f").stripes[0]
        order, offset = stripe.node_order, stripe.offset
    else:  # code encode's stripe: block b in b<b>.blk, the layout of seed 0
        order, offset = schemes.build_layout(scheme, range(scheme.code_length), 0), 0
    down = {order.index(n) for n in killed}
    corrupt = set()
    if m := re.fullmatch(r"s/n(\d+)/blocks\.blk", call.path):
        slot = order.index(int(m[1]))
        if call.op == "open":
            down.add(slot)
        else:
            for rank, b in enumerate(geo.blocks_on[slot]):
                lo = offset + rank * BS
                if lo < call.offset + call.length and call.offset < lo + BS:
                    corrupt.add((b, slot))
    elif m := re.fullmatch(r"stripe/b(\d+)\.blk", call.path):
        corrupt = {(int(m[1]), s) for s in geo.placements[int(m[1])]}
    elif call.path.endswith(".json"):
        return None
    return down, corrupt


def _accepted(scheme, damage) -> bool:
    try:
        codes.plan_repair(scheme, *damage)
    except UnrecoverableError:
        return False
    return True


def _read_before(calls, call) -> bool:
    """Whether one of the earlier *calls* read the range that *call* asks for."""
    return call.op in ("pread", "preadv") and any(
        c.op in ("pread", "preadv") and c.path == call.path and isinstance(c.result, int)
        and c.offset <= call.offset and c.offset + c.length >= call.offset + call.length
        for c in calls)


@pytest.mark.parametrize("command", ["get", "fsck", "repair", "decode"])
@pytest.mark.parametrize("killed", [False, True], ids=["whole", "killed"])
@pytest.mark.parametrize("name", ["pentagon", "heptagon-local"])
def test_every_read_fault_is_survived_or_refused_on_one_line(stripes, tmp_path, monkeypatch,
                                                              name, killed, command):
    """Fail each read call of the command in turn, an open with EACCES and a
    read with EIO, on the undamaged store and stripe and on both with
    ``tolerance(scheme)`` nodes lost.  Each run exits 0 with the right
    bytes (the right verdict, for fsck) when ``plan_repair`` accepts the
    damage the fault leaves, and otherwise exits 1 on one ``error:`` line,
    which names the file when it is a JSON metadata file's; a fault on a
    range that the command had read whole before may cost it nothing.  No
    run raises, and none loses a byte: after each repair the store reads
    back whole."""
    scheme = schemes.parse_scheme(name)
    base = tmp_path / "base"
    shutil.copytree(stripes[name], base)
    lost = list(range(schemes.tolerance(scheme))) if killed else []
    for node in lost:
        assert run(["store", "kill", "--root", str(base / "s"), "--node", str(node)])[0] == 0
    data = (base / "f").read_bytes()
    argv = {"get": ["store", "get", "--root", "s", "--name", "f", "--output", "out"],
            "fsck": ["store", "fsck", "--root", "s"], "repair": ["store", "repair", "--root", "s"],
            "decode": ["code", "decode", "--in-dir", "stripe", "--killed",
                       ",".join(map(str, lost)), "--output", "out"]}[command]

    def faulted(k: int | None):
        """The run with read call k failed, on a copy of the base for a
        repair: (exit code, stdout, stderr, the calls, the copy)."""
        case = base
        if command == "repair":
            case = tmp_path / str(k)
            shutil.copytree(base, case, ignore=shutil.ignore_patterns("stripe"))
        (case / "out").unlink(missing_ok=True)
        with RecordedOS(monkeypatch, case) as rec:
            if k is not None:
                error = errno.EACCES if reads[k].op == "open" else errno.EIO
                rec.fail(lambda c: c.reads, k=k, error=error)
            code, out, err = run([str(case / a) if a in ("s", "stripe", "out") else a
                                  for a in argv])
        return code, out, err, rec.calls, case

    code, out, err, calls, _ = faulted(None)
    assert (code, err) == (0, "")
    at = [i for i, c in enumerate(calls) if c.reads]  # each read call's place in the log
    reads = [calls[i] for i in at]
    assert reads
    for k, call in enumerate(reads):
        what = (name, lost, command, k, call)
        code, out, err, log, copy = faulted(k)
        failed = [c for c in log if c.reads][k]
        assert failed[:4] == call[:4] and failed.result.errno in (errno.EACCES, errno.EIO), what
        damage = _damage(base, scheme, lost, call)
        ok = damage is not None and _accepted(scheme, damage)
        late = _read_before(calls[:at[k]], call)
        if command == "fsck" and damage is not None:  # fsck reports a fatal stripe
            on_node = re.fullmatch(r"s/n\d+/blocks\.blk", call.path) is not None
            assert (code, err) == (0, ""), what
            assert f"fatal_stripes: {int(not ok)}\n" in out, (what, out)
            assert ("unreadable: 1\n" in out) == on_node, (what, out)
            assert on_node or "\nnext_offset: " in out, (what, out)
        elif ok or late and code == 0:
            assert (code, err) == (0, ""), what
            if command in ("get", "decode"):
                assert (copy / "out").read_bytes() == data, what
        else:
            assert code == 1 and out == "" and re.fullmatch(r"error: [^\n]+\n", err), (what, err)
            named = f"error: {copy / call.path}: "  # a metadata file's fault names the file
            assert not call.path.endswith(".json") or err.startswith(named), (what, err)
            assert not (copy / "out").exists(), what
        if command == "repair":  # nothing is lost: the next repair restores every byte
            assert run(["store", "repair", "--root", str(copy / "s")])[0] == 0, what
            assert run(["store", "fsck", "--root", str(copy / "s")])[1].endswith("clean\n"), what
            assert run(["store", "get", "--root", str(copy / "s"), "--name", "f", "--output",
                        str(copy / "out")])[0] == 0 and (copy / "out").read_bytes() == data, what
