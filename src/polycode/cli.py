"""Command-line entry point wiring codes, block store, and simulators.

Subcommands::

    code info|encode|decode|repair-plan
    store init|put|get|kill|revive|fsck|repair
    sim locality|reliability
    report

Exit codes: 0 success, 1 domain error (unrecoverable pattern, checksum
mismatch, fatal stripe, ...), 2 usage error.  Randomized commands require
--seed and are reproducible: identical argv gives byte-identical outputs.
Flags override values from an optional key=value --config file.
"""

from __future__ import annotations

import io
import itertools
import os
import stat
import sys
from functools import cache
from types import SimpleNamespace

from .schemes import parse_scheme, storage_overhead, tolerance

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import argparse
    from pathlib import Path

# A process runs one command, so each handler imports the modules it needs
# (codes, blockstore, mapsched, reliability, csv, pathlib), and argparse is
# imported only for an argv that the plain-argv path leaves to it.  No
# polycode module imports typing, dataclasses or logging, nor fractions or
# random before use.

REPORT_SCHEMES = ["2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local", "raidm-9", "raidm-11"]


class UsageError(Exception):
    pass


@cache
def _parser_class() -> type[argparse.ArgumentParser]:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # return exit code 2 instead of sys.exit
            raise UsageError(message)

    return _Parser


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def emit_report(rows: list[dict], path: str | Path | None, fieldnames: list[str]) -> str:
    """Write rows as RFC-4180 CSV (header always present, CRLF line ends);
    byte-stable for identical rows.  Returns the text; writes it when
    *path* is given ('-' or None prints to stdout)."""
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        if set(row) != set(fieldnames):
            raise ValueError("row keys do not match the report schema")
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    text = buf.getvalue()
    if path is None or str(path) == "-":
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(text.encode())
    return text


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _parse_str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


_REQUIRED = {"required": True}
_ROOT = ("--root", _REQUIRED)

# Every leaf command, keyed "<group> <leaf>" (or "report"), with its options
# in help order as (flag, add_argument keywords).  Group and leaf order here
# is the order help lists them in.
COMMANDS: dict[str, list[tuple[str, dict]]] = {
    "code info": [("--scheme", _REQUIRED)],
    "code encode": [
        ("--scheme", _REQUIRED),
        ("--input", _REQUIRED),
        ("--out-dir", _REQUIRED),
        ("--block-size", {"type": int, "default": 0, "help": "0 = fit input in one stripe"}),
    ],
    "code decode": [
        ("--in-dir", _REQUIRED),
        ("--killed", {"default": "", "help": "comma-separated failed node ids"}),
        ("--output", _REQUIRED),
    ],
    "code repair-plan": [
        ("--scheme", _REQUIRED),
        ("--failed", {"required": True, "help": "comma-separated failed node ids"}),
    ],
    "store init": [
        _ROOT,
        ("--scheme", _REQUIRED),
        ("--nodes", {"type": int, "default": 0, "help": "0 = code length"}),
        ("--block-size", {"type": int, "default": 4 * 1024 * 1024}),
        ("--seed", {"type": int, "required": True}),
    ],
    "store put": [_ROOT, ("--file", _REQUIRED), ("--name", {})],
    "store get": [_ROOT, ("--name", _REQUIRED), ("--output", _REQUIRED)],
    "store kill": [_ROOT, ("--node", {"type": int, "required": True})],
    "store revive": [_ROOT, ("--node", {"type": int, "required": True})],
    "store fsck": [_ROOT],
    "store repair": [_ROOT],
    "sim locality": [
        ("--scheme", {"required": True, "help": "comma-separated scheme names"}),
        ("--scheduler", {"default": "delay", "help": "comma-separated: matching,delay,peeling"}),
        ("--nodes", {"type": int, "default": 25}),
        ("--slots", {"default": "4", "help": "comma-separated map slots per node"}),
        ("--load", {"default": "100", "help": "comma-separated load percentages"}),
        ("--reps", {"type": int, "default": 20}),
        ("--seed", {"type": int, "required": True}),
        ("--stripes", {"type": int, "default": 0, "help": "0 = default dataset size"}),
        ("--delay-rounds", {"type": int, "default": 1}),
        ("--summary", {"action": "store_true", "help": "aggregate per cell"}),
        ("--out", {"default": "-"}),
    ],
    "sim reliability": [
        ("--scheme", {"required": True, "help": "comma-separated scheme names"}),
        ("--mttf-hours", {"type": float}),  # 4 years when None: see _cmd_sim_reliability
        ("--mttr-hours", {"type": float, "default": 24.0}),
        ("--mode", {"choices": ["parallel", "serial"], "default": "parallel"}),
        ("--trials", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "required": True}),
        ("--threads", {"type": int, "default": 1}),
        ("--out", {"default": "-"}),
    ],
    "report": [
        ("--kind", {"choices": ["schemes", "locality-summary"], "required": True}),
        ("--input", {"help": "detail CSV for locality-summary"}),
        ("--out", {"default": "-"}),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, so help and usage errors list every choice."""
    _Parser = _parser_class()
    parser = _Parser(prog="polycode", description=__doc__)
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    groups = {}  # group name -> its subparsers action
    for name in COMMANDS:
        group, _, leaf = name.partition(" ")
        if not leaf:
            p = sub.add_parser(group)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group).add_subparsers(
                    dest="subcommand", required=True, parser_class=_Parser
                )
            p = groups[group].add_parser(leaf)
        for flag, kwargs in COMMANDS[name]:
            p.add_argument(flag, **kwargs)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) gives, read straight
    from COMMANDS, for a plain argv: a leaf command followed by exact
    '--flag value' pairs and bare store_true flags, no value starting with
    '-' other than '-' itself.  None for any other argv (help, abbreviations,
    '--flag=value' and so every value from a --config file, negative
    numbers, unknown tokens, a failed conversion or choice, a missing
    required flag), which argparse then parses and reports as it always
    has."""
    if argv[:1] == ["report"]:
        key, pos, values = "report", 1, {"command": "report"}
    elif len(argv) >= 2 and f"{argv[0]} {argv[1]}" in COMMANDS:
        key, pos = f"{argv[0]} {argv[1]}", 2
        values = {"command": argv[0], "subcommand": argv[1]}
    else:
        return None
    options = dict(COMMANDS[key])
    given = {}
    while pos < len(argv):
        flag = argv[pos]
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            pos += 1
            continue
        if pos + 1 == len(argv):
            return None
        value = argv[pos + 1]
        if value.startswith("-") and value != "-":
            return None
        if "type" in kwargs:  # each occurrence is converted, as argparse does
            try:
                value = kwargs["type"](value)
            except (TypeError, ValueError):  # int and float raise no other
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
        pos += 2
    for flag, kwargs in COMMANDS[key]:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        values[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(config=None, **values)


def _expand_config(argv: list[str]) -> list[str]:
    """*argv* with each '--config FILE' (or '--config=FILE') taken out,
    wherever it stands, and the file's key=value lines written back right
    after the command words: '--key=value', or a bare '--key' for a true
    switch.  Flags typed on the line come later, so they win, and argparse
    checks the file's values exactly as it checks flags.  A key is a flag
    of the command, with '_' or '-' between words.  An abbreviation such
    as '--conf' is read as '--config', as argparse would read it: no leaf
    flag starts with '--c'."""
    rest, paths = [], []
    tokens = iter(argv)
    for tok in tokens:
        flag, eq, arg = tok.partition("=")
        if len(flag) < 3 or not "--config".startswith(flag):
            rest.append(tok)
            continue
        if not eq:
            arg = next(tokens, None)
            if arg is None:
                raise UsageError(f"{flag} needs a value")
        paths.append(arg)
    if not paths:
        return argv
    words = 1 if rest[:1] == ["report"] else 2
    key = " ".join(rest[:words])
    if key not in COMMANDS:
        raise UsageError("--config requires a recognizable subcommand")
    options = {flag[2:].replace("-", "_"): (flag, kwargs) for flag, kwargs in COMMANDS[key]}
    pairs, unknown = [], set()
    from pathlib import Path

    for path in map(Path, paths):
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise UsageError(f"config file {path} is not UTF-8 text") from None
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{ln}: expected key=value")
            name = name.strip().replace("-", "_")
            if name not in options:
                unknown.add(name)
                continue
            flag, kwargs = options[name]
            value = value.strip()
            if kwargs.get("action") != "store_true":
                pairs.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes"):
                pairs.append(flag)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return [*rest[:words], *pairs, *rest[words:]]


# ---------------------------------------------------------------------------
# Subcommand implementations


# An output is written one writev per _WRITE_BATCH bytes: a small file (a
# pentagon stripe of 4 KiB blocks is 36 KiB) takes one write, and a large one
# holds a batch and a block at most, where a writev per stripe would hold the
# whole stripe.
_WRITE_BATCH = 256 * 1024
_IOV_MAX = 1024  # buffers one writev takes on Linux


def _writev_all(fd: int, buffers: list) -> None:
    """Write every byte of *buffers*: one writev, then the rest of a short one."""
    done = os.writev(fd, buffers)
    for buf in buffers:  # after a short write, as to a pipe: the rest piece by piece
        if done >= len(buf):
            done -= len(buf)
            continue
        view = memoryview(buf)[done:]
        done = 0
        while view:
            view = view[os.write(fd, view):]


def _write_blocks(fd: int, blocks) -> int:
    """Write the bytes-like *blocks* in order, batched; returns the count."""
    total, batch, pending = 0, [], 0
    for block in blocks:
        batch.append(block)
        pending += len(block)
        if pending >= _WRITE_BATCH or len(batch) == _IOV_MAX:
            _writev_all(fd, batch)
            total += pending
            batch, pending = [], 0
    if batch:
        _writev_all(fd, batch)
    return total + pending


def _write_output(path: str, blocks) -> int:
    """Write the bytes-like *blocks* to *path* and return the byte count.

    All or nothing: the blocks go to a temp file beside *path* that is
    renamed over it once the last one is written, so an error part way,
    such as a block that cannot be read, leaves *path* as it was and no
    temp file behind.  An existing *path* that is not a regular file (a
    FIFO, /dev/stdout) is written in place and never renamed over; through
    a symlink, its target is replaced.  An error opening the output is
    reported against *path*, as writing it in place would report it.
    """
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    if info is not None and not stat.S_ISREG(info.st_mode):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            return _write_blocks(fd, blocks)
        finally:
            os.close(fd)
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory, base = os.path.split(target)
    for n in itertools.count():
        tmp = os.path.join(directory, f".{base}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        try:
            if info is not None:  # the output keeps its permissions
                os.fchmod(fd, stat.S_IMODE(info.st_mode))
            size = _write_blocks(fd, blocks)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return size


def _cmd_code_info(args) -> int:
    scheme = parse_scheme(args.scheme)
    print(f"scheme: {scheme.name}")
    print(f"storage_overhead: {float(storage_overhead(scheme)):.3g}")
    print(f"code_length: {scheme.code_length}")
    print(f"data_blocks: {scheme.data_block_count}")
    print(f"coded_blocks: {scheme.block_count}")
    print(f"stored_blocks: {scheme.stored_block_count}")
    print(f"tolerance: {tolerance(scheme)}")
    return 0


def _cmd_code_encode(args) -> int:
    from pathlib import Path

    from .blockstore import MAX_BLOCK_SIZE, write_stripe_dir

    scheme = parse_scheme(args.scheme)
    D = scheme.data_block_count
    with open(args.input, "rb", buffering=0) as src:
        info = os.fstat(src.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to plan the stripe by
            data = src.readall()
            size, src = len(data), io.BytesIO(data)
        block_size = args.block_size or min(max(1, -(-size // D)), MAX_BLOCK_SIZE)
        if not 0 < block_size <= MAX_BLOCK_SIZE:
            raise UsageError(f"--block-size {block_size} is outside 1..{MAX_BLOCK_SIZE}")
        if size > D * block_size:
            raise UsageError("input exceeds one stripe; raise --block-size or use the store")
        size = write_stripe_dir(args.out_dir, scheme, src, block_size)
    print(f"encoded {size} bytes into {scheme.block_count} blocks under {Path(args.out_dir)}")
    return 0


def _cmd_code_decode(args) -> int:
    from .blockstore import read_stripe_dir

    blocks = read_stripe_dir(args.in_dir, _parse_int_list(args.killed))
    print(f"decoded {_write_output(args.output, blocks)} bytes to {args.output}")
    return 0


def _cmd_code_repair_plan(args) -> int:
    from . import codes

    scheme = parse_scheme(args.scheme)
    plan = codes.plan_repair(scheme, _parse_int_list(args.failed))
    for t in plan.transfers:
        if isinstance(t.payload, codes.WholeCopy):
            what = f"copy block {t.payload.block_id}"
        else:
            terms = "+".join(
                f"{coef:#x}*b{b}" if coef != 1 else f"b{b}" for b, coef in t.payload.terms
            )
            what = f"partial parity {terms}"
        print(f"n{t.src} -> n{t.dst}: {what}")
    print(f"bandwidth_blocks: {plan.bandwidth_blocks}")
    return 0


def _cmd_store(args) -> int:
    from . import blockstore

    sub = args.subcommand
    if sub == "init":
        scheme = parse_scheme(args.scheme)
        nodes = args.nodes or scheme.code_length
        blockstore.BlockStore.create(args.root, scheme, nodes, args.block_size, args.seed)
        print(f"initialized {scheme.name} store with {nodes} nodes at {args.root}")
        return 0
    store = blockstore.BlockStore(args.root)
    if sub == "put":
        manifest = store.put(args.file, args.name)
        print(f"stored {manifest.name}: {manifest.size} bytes in {manifest.stripe_count} stripes")
    elif sub == "get":
        size = _write_output(args.output, store.read(args.name))
        print(f"read {size} bytes; degraded transfers: {store.degraded_transfers}")
    elif sub in ("kill", "revive"):
        state = (store.kill_node if sub == "kill" else store.revive_node)(args.node)
        print(f"node {state.node_id} is {state.status}")
    elif sub == "fsck":
        report = store.fsck()
        print(f"missing: {len(report.missing)}")
        print(f"corrupt: {len(report.corrupt)}")
        print(f"fatal_stripes: {len(report.fatal_stripes)}")
        if report.mark:
            print(f"next_offset: {report.mark}")
        print("clean" if report.is_clean else "damaged")
    elif sub == "repair":
        result = store.repair()
        print(f"plans_executed: {result.plans_executed}")
        print(f"bandwidth_blocks: {result.bandwidth_blocks}")
    return 0


def _cmd_sim_locality(args) -> int:
    from . import mapsched

    schemes = _parse_str_list(args.scheme)
    schedulers = _parse_str_list(args.scheduler)
    for s in schedulers:
        if s not in mapsched.SCHEDULERS:
            raise UsageError(f"unknown scheduler: {s}")
    rows = mapsched.locality_sweep(
        schemes,
        schedulers,
        _parse_int_list(args.slots),
        _parse_float_list(args.load),
        reps=args.reps,
        node_count=args.nodes,
        base_seed=args.seed,
        stripes=args.stripes or None,
        rounds_before_remote=args.delay_rounds,
    )
    if args.summary:
        emit_report(mapsched.summarize_locality(rows), args.out, mapsched.SUMMARY_COLUMNS)
    else:
        emit_report(rows, args.out, mapsched.LOCALITY_COLUMNS)
    return 0


def _cmd_sim_reliability(args) -> int:
    from . import reliability

    schemes = [parse_scheme(s) for s in _parse_str_list(args.scheme)]
    mttf = 4 * reliability.HOURS_PER_YEAR if args.mttf_hours is None else args.mttf_hours
    model = reliability.FailureModel.from_mttf_mttr(mttf, args.mttr_hours, args.mode)
    chains = [reliability.build_markov_chain(scheme, model) for scheme in schemes]
    rows = reliability.reliability_rows(
        schemes, model, chains, args.trials, args.seed, args.threads
    )
    emit_report(rows, args.out, reliability.RELIABILITY_COLUMNS)
    # the caveats follow the report, so a failed command writes its error first
    for scheme, chain in zip(schemes, chains):
        for note in chain.assumptions:
            print(f"# {scheme.name}: {note}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    if args.kind == "schemes":
        from . import reliability

        rows = []
        for name in REPORT_SCHEMES:
            scheme = parse_scheme(name)
            years = reliability.mttdl_analytic(scheme, reliability.DEFAULT_MODEL)
            rows.append(
                {
                    "scheme": scheme.name,
                    "storage_overhead": round(float(storage_overhead(scheme)), 3),
                    "code_length": scheme.code_length,
                    "tolerance": tolerance(scheme),
                    "mttdl_years_default_model": round(years / reliability.HOURS_PER_YEAR, 1),
                }
            )
        emit_report(
            rows,
            args.out,
            ["scheme", "storage_overhead", "code_length", "tolerance", "mttdl_years_default_model"],
        )
        return 0
    if not args.input:
        raise UsageError("--input is required for locality-summary")
    import csv

    from . import mapsched

    kinds = {"scheme": str, "scheduler": str, "nodes": int, "slots": int, "load_pct": float,
             "seed": int, "tasks": int, "local_tasks": int, "locality_pct": float,
             "remote_blocks": int}
    rows = []
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in kinds if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.input} lacks the locality columns {', '.join(missing)}")
        for r in reader:
            row = {}
            for column, kind in kinds.items():
                try:
                    row[column] = kind(r[column])
                except (TypeError, ValueError):  # TypeError: a short row's None
                    raise ValueError(f"{args.input} line {reader.line_num}: {column}"
                                     f" is not a number: {r[column]!r}") from None
            rows.append(row)
    emit_report(mapsched.summarize_locality(rows), args.out, mapsched.SUMMARY_COLUMNS)
    return 0


def _domain_errors() -> tuple[type[Exception], ...]:
    """The errors main reports as 'error:' with exit 1.  An except clause
    evaluates this only once an error reaches it, and a CodeError or a
    StoreError can only come from a command that has imported codes or
    blockstore by then."""
    codes, store = sys.modules.get("polycode.codes"), sys.modules.get("polycode.blockstore")
    return ((ValueError,) + ((codes.CodeError,) if codes else ())
            + ((store.StoreError,) if store else ()))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
        args = _parse_plain(argv) or build_parser().parse_args(argv)
        if args.command == "code":
            handler = {
                "info": _cmd_code_info,
                "encode": _cmd_code_encode,
                "decode": _cmd_code_decode,
                "repair-plan": _cmd_code_repair_plan,
            }[args.subcommand]
            return handler(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "sim":
            if args.subcommand == "locality":
                return _cmd_sim_locality(args)
            return _cmd_sim_reliability(args)
        return _cmd_report(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _domain_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path that cannot be read or written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
