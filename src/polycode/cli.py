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
import zlib
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import codes
from .codes import CodeError, parse_scheme, storage_overhead, tolerance

if TYPE_CHECKING:
    import argparse

# A process runs one command, so each handler imports the modules it needs
# (blockstore, mapsched, reliability, csv, json), and argparse is imported
# only for an argv that the plain-argv path leaves to it.

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
        Path(path).write_bytes(text.encode())
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the leaf parsers it holds, by COMMANDS key:
    the whole tree, so help and usage errors list every choice."""
    import argparse

    _Parser = _parser_class()
    parser = _Parser(prog="polycode", description=__doc__)
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    groups = {}  # group name -> its subparsers action
    registry: dict[str, argparse.ArgumentParser] = {}
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
        p.add_argument("--config", help=argparse.SUPPRESS)
        registry[name] = p
    return parser, registry


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser()[0].parse_args(argv) gives, read
    straight from COMMANDS, for a plain argv: a leaf command followed by
    exact '--flag value' pairs and bare store_true flags, no value starting
    with '-' other than '-' itself.  None for any other argv (help,
    --config, abbreviations, '--flag=value', negative numbers, unknown
    tokens, a failed conversion or choice, a missing required flag), which
    argparse then parses and reports as it always has."""
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


def _extract_config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a value")
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _command_key(argv: list[str]) -> str | None:
    """The '<command> <subcommand>' (or 'report') key named by argv, config
    tokens excluded; it need not be a key of COMMANDS."""
    rest = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" or tok.startswith("--config="):
            i += 1 if "=" in tok else 2
            continue
        rest.append(tok)
        i += 1
    if not rest or rest[0].startswith("-"):
        return None
    if rest[0] == "report":
        return "report"
    if len(rest) >= 2 and not rest[1].startswith("-"):
        return f"{rest[0]} {rest[1]}"
    return None


def _apply_config(registry: dict[str, argparse.ArgumentParser], argv: list[str]) -> None:
    """Install config values as the target subcommand's defaults (and lift
    their required flags), so explicit argv flags keep precedence."""
    import argparse

    config_path = _extract_config_path(argv)
    if config_path is None:
        return
    path = Path(config_path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    values = {}
    for ln, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{ln}: expected key=value")
        values[key.strip().replace("-", "_")] = value.strip()

    key = _command_key(argv)
    if key not in COMMANDS:
        raise UsageError("--config requires a recognizable subcommand")
    known = {
        a.dest: a for a in registry[key]._actions if a.dest not in ("help", "config")
    }
    unknown = set(values) - set(known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    defaults = {}
    for dest, raw in values.items():
        action = known[dest]
        if isinstance(action, argparse._StoreTrueAction):
            defaults[dest] = raw.lower() in ("1", "true", "yes")
        elif action.type is not None:
            defaults[dest] = action.type(raw)
        else:
            defaults[dest] = raw
    target = registry[key]
    target.set_defaults(**defaults)
    for action in target._actions:
        if action.dest in defaults:
            action.required = False


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
    import json

    from .blockstore import fill

    scheme = parse_scheme(args.scheme)
    D = scheme.data_block_count
    with open(args.input, "rb", buffering=0) as src:
        info = os.fstat(src.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to plan the stripe by
            data = src.readall()
            size, src = len(data), io.BytesIO(data)
        block_size = args.block_size or max(1, -(-size // D))
        if size > D * block_size:
            raise UsageError("input exceeds one stripe; raise --block-size or use the store")
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        order = codes.build_layout(scheme, range(scheme.code_length), 0)
        geo = codes._geometry(scheme)
        entries = {}

        def write_block(block_id: int, body) -> None:
            name = f"b{block_id}.blk"
            (out / name).write_bytes(body)
            entries[block_id] = {
                "file": name,
                "role": geo.roles[block_id].as_string(),
                "nodes": [order[s] for s in geo.placements[block_id]],
                "crc32": f"{zlib.crc32(body):08x}",
            }

        # one data block at a time through one buffer, as the store's put does
        encoder = codes.StripeEncoder(scheme, block_size)
        block = bytearray(block_size)
        view = memoryview(block)
        for i in range(D):
            n = fill(src, view)
            if n < block_size:  # the input's end: pad the stripe with zeros
                view[n:] = bytes(block_size - n)
            encoder.feed(i, block)
            write_block(geo.data_block_of[i], block)
    for block_id, body in encoder.parities():
        write_block(block_id, body)
    meta = {
        "scheme": scheme.name,
        "block_size": block_size,
        "original_size": size,
        "blocks": {str(b): entries[b] for b in sorted(entries)},
    }
    (out / "stripe.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"encoded {size} bytes into {len(entries)} blocks under {out}")
    return 0


def _cmd_code_decode(args) -> int:
    import json

    src = Path(args.in_dir)
    meta = json.loads((src / "stripe.json").read_text())
    if not (isinstance(meta, dict) and isinstance(meta.get("scheme"), str)
            and isinstance(meta.get("original_size"), int) and isinstance(meta.get("blocks"), dict)
            and all(isinstance(b, dict) and isinstance(b.get("file"), str) and "crc32" in b
                    and isinstance(b.get("nodes"), list) and all(type(n) is int for n in b["nodes"])
                    for b in meta["blocks"].values())):
        raise ValueError(f"{src / 'stripe.json'} is malformed")
    scheme = parse_scheme(meta["scheme"])
    killed = set(_parse_int_list(args.killed))
    surviving: dict[int, dict[int, bytes]] = {}
    for block_id, info in meta["blocks"].items():
        block_id = int(block_id)
        hosts = [n for n in info["nodes"] if n not in killed]
        if not hosts:
            continue
        try:
            body = (src / info["file"]).read_bytes()
        except FileNotFoundError:
            continue  # a lost block: decode_stripe rebuilds it if the code can
        if f"{zlib.crc32(body):08x}" != info["crc32"]:
            raise codes.ChecksumMismatchError(f"{info['file']} failed its CRC check")
        surviving.setdefault(hosts[0], {})[block_id] = body
    data = codes.decode_stripe(scheme, surviving, killed)
    size, width = meta["original_size"], len(data[0])
    written = _write_output(
        args.output,
        (memoryview(b)[: size - i * width] for i, b in enumerate(data) if i * width < size),
    )
    print(f"decoded {written} bytes to {args.output}")
    return 0


def _cmd_code_repair_plan(args) -> int:
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
    elif sub == "kill":
        state = store.kill_node(args.node)
        print(f"node {state.node_id} is {state.status}")
    elif sub == "revive":
        state = store.revive_node(args.node)
        print(f"node {state.node_id} is {state.status}")
    elif sub == "fsck":
        report = store.fsck()
        print(f"missing: {len(report.missing)}")
        print(f"corrupt: {len(report.corrupt)}")
        print(f"fatal_stripes: {len(report.fatal_stripes)}")
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
    evaluates this only once an error reaches it, and a StoreError can only
    come from a command that has imported blockstore by then."""
    store = sys.modules.get("polycode.blockstore")
    return (CodeError, ValueError) + ((store.StoreError,) if store else ())


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_plain(argv)
        if args is None:
            parser, registry = build_parser()
            _apply_config(registry, argv)
            args = parser.parse_args(argv)
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
