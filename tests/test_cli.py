import ast
import contextlib
import csv
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycode
from polycode import cli, codes
from polycode.cli import emit_report, main


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


def test_encode_decode_roundtrip(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(1).randbytes(5000))
    code, *_ = run(capsys, "code", "encode", "--scheme", "pentagon",
                   "--input", str(src), "--out-dir", str(tmp_path / "stripe"))
    assert code == 0
    out_file = tmp_path / "out.bin"
    code, *_ = run(capsys, "code", "decode", "--in-dir", str(tmp_path / "stripe"),
                   "--killed", "0,1", "--output", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == src.read_bytes()


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
    assert code == 1
    assert "b5.blk" in err and "crc" in err.lower()
    assert not out_file.exists()


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


# modules that only some commands need, so that cli imports none of them itself
LAZY = ("polycode.blockstore", "polycode.mapsched", "polycode.reliability", "logging",
        "argparse", "csv", "json", "concurrent.futures.process")


def _in_fresh_process(*argvs, cwd=None):
    """Import polycode.cli in a new interpreter and run each argv through
    main: (exit codes, the LAZY modules loaded since start-up, stderr)."""
    probe = "\n".join([
        "import sys",
        f"before = {{m for m in {LAZY!r} if m in sys.modules}}",
        "from polycode import cli",
        "def run(argv):",
        "    try:",
        "        return cli.main(argv)",
        "    except SystemExit as exc:  # --help",
        "        return exc.code",
        f"codes = [run(argv) for argv in {[list(a) for a in argvs]!r}]",
        f"print(repr((codes, sorted(set({LAZY!r}) & set(sys.modules) - before))))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(polycode.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    codes, loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    return codes, set(loaded), done.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    assert _in_fresh_process() == ([], set(), "")


@pytest.mark.parametrize("argvs, unloaded", [
    ([["sim", "reliability", "--scheme", "pentagon", "--mttf-hours", "100", "--mttr-hours",
       "10", "--trials", "100", "--seed", "1"]],
     {"polycode.blockstore", "polycode.mapsched", "logging", "argparse"}),
    ([["sim", "locality", "--scheme", "pentagon", "--reps", "1", "--seed", "1"]],
     {"polycode.blockstore", "polycode.reliability", "logging", "argparse"}),
    ([["store", "init", "--root", "s", "--scheme", "pentagon", "--seed", "1"],
      ["store", "fsck", "--root", "s"]],
     {"polycode.mapsched", "polycode.reliability", "argparse", "csv"}),
    ([["code", "info", "--scheme", "pentagon"]], set(LAZY)),
    ([["--help"]], set(LAZY) - {"argparse"}),
    ([["--config", "info.cfg", "code", "info"]], set(LAZY) - {"argparse"}),
], ids=["sim-reliability", "sim-locality", "store-fsck", "code-info", "help", "config"])
def test_a_command_leaves_the_modules_it_does_not_run_unloaded(argvs, unloaded, tmp_path):
    (tmp_path / "info.cfg").write_text("scheme=pentagon\n")
    codes, loaded, err = _in_fresh_process(*argvs, cwd=tmp_path)
    assert codes == [0] * len(argvs), err
    assert not loaded & unloaded


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
    assert held == sum(stripes) * len(killed)  # one file per node and stripe
    for k in killed:
        assert main(["store", "kill", "--root", str(root), "--node", str(k)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "store", "fsck", "--root", str(root))
    assert code == 0
    assert out == f"missing: {held}\ncorrupt: 0\nfatal_stripes: 0\ndamaged\n"
    assert main(["store", "repair", "--root", str(root)]) == 0
    capsys.readouterr()
    assert run(capsys, "store", "fsck", "--root", str(root))[1].endswith("clean\n")


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
    # the first name leaves room for the manifest and the block files but not
    # for the temp manifest; the second for none of them
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


@pytest.mark.parametrize("target,text,argv", [
    ("stripe/stripe.json", "{}", _DECODE),
    ("stripe/stripe.json", None, _DECODE),
    ("s/f.manifest.json", '{"file":"f"}', ["store", "fsck", *_STORE]),
    ("s/f.manifest.json", '{"file":"f"}', ["store", *_GET]),
    *[("s/store.json", "[]", ["store", *argv]) for argv in (
        ["put", *_STORE, "--file", "f"], _GET, ["kill", *_STORE, "--node", "0"],
        ["revive", *_STORE, "--node", "0"], ["fsck", *_STORE], ["repair", *_STORE])],
])
def test_malformed_metadata_is_an_error_that_names_its_file(tmp_path, monkeypatch, capsys,
                                                              target, text, argv):
    """A stripe.json, manifest or store.json that lacks a field the command
    reads is refused by name, with no traceback.  text None: drop the
    "nodes" of one block entry."""
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
    Path(target).write_text(text)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith(f"error: {target} is malformed"), err


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
    if len(words) == 2:  # the group parser reads the config path as its leaf
        cases.append([words[0], "--config", str(empty_cfg), words[1]])
    for argv in cases:
        assert run(capsys, *argv)[0] == 2, argv


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
    return cli.build_parser()[0].parse_args(argv)


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


@st.composite
def _contract_argvs(draw):
    """A leaf command and a value, or a kind of file, for each of its flags."""
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
    return key, given


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

            store = BlockStore.create(path, codes.Polygon(5), 5, 16, seed=1)
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
def test_every_argv_ends_in_exit_0_1_or_2_with_an_error_line(drawn):
    """Any leaf command, with any values for its flags and any of the
    inputs a user can hand it, exits 0, 1 or 2; a non-zero exit writes
    ``error:`` or ``usage error:`` first on stderr, and no traceback."""
    key, given = drawn
    with tempfile.TemporaryDirectory() as tmp:
        argv = key.split()
        for flag, value in given.items():
            if flag in _PATHS:
                value = _make_input(flag, value, Path(tmp))
            argv += [flag] if value is None else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().startswith(("error:", "usage error:")), (argv, err.getvalue())
