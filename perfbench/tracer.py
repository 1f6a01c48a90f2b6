"""Spans and counters around polycode's public functions, installed from
outside the package.

Each target is wrapped once and the wrapper is bound wherever the original
function object is bound in a ``polycode`` module, so names imported with
``from .gf256 import xor_bytes`` are traced as well.  Spans live in memory as
``[name, start, end, parent, op]`` and ``dump`` writes them out as gzipped
JSON lines; ``op`` is the index of the CLI command that caused them.  A
target that does not exist at the measured commit is listed in ``missing``
instead of raising.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

# (label, module, attribute path, record a span?)
TARGETS = [
    ("gf256.xor_bytes", "polycode.gf256", "xor_bytes", True),
    ("gf256.scale_bytes", "polycode.gf256", "scale_bytes", True),
    ("gf256.xor_many", "polycode.gf256", "xor_many", True),
    ("codes.encode_stripe", "polycode.codes", "encode_stripe", True),
    ("codes.decode_stripe", "polycode.codes", "decode_stripe", True),
    ("codes.execute_plan", "polycode.codes", "execute_plan", True),
    ("codes.plan_degraded_read", "polycode.codes", "plan_degraded_read", True),
    ("codes.plan_repair", "polycode.codes", "plan_repair", True),
    ("codes.can_decode_from", "polycode.codes", "can_decode_from", True),
    ("codes.is_recoverable_mask", "polycode.codes", "is_recoverable_mask", True),
    ("blockstore.open", "polycode.blockstore", "BlockStore.__init__", True),
    ("blockstore.put", "polycode.blockstore", "BlockStore.put", True),
    ("blockstore.get", "polycode.blockstore", "BlockStore.get", True),
    ("blockstore.fsck", "polycode.blockstore", "BlockStore.fsck", True),
    ("blockstore.repair", "polycode.blockstore", "BlockStore.repair", True),
    ("reliability.build_markov_chain", "polycode.reliability", "build_markov_chain", True),
    ("reliability.mttdl_analytic", "polycode.reliability", "mttdl_analytic", True),
    ("reliability.mttdl_montecarlo", "polycode.reliability", "mttdl_montecarlo", True),
    # one call per Monte Carlo trial; counted, not spanned
    ("reliability.trial_rng", "polycode.reliability", "_trial_rng", False),
    ("mapsched.build_cluster", "polycode.mapsched", "build_cluster", True),
    ("mapsched.generate_workload", "polycode.mapsched", "generate_workload", True),
    ("mapsched.schedule_maxmatch", "polycode.mapsched", "schedule_maxmatch", True),
    ("mapsched.schedule_delay", "polycode.mapsched", "schedule_delay", True),
    ("mapsched.schedule_peeling", "polycode.mapsched", "schedule_peeling", True),
    ("cli.main", "polycode.cli", "main", True),
    ("cli.build_parser", "polycode.cli", "build_parser", True),
    ("cli.emit_report", "polycode.cli", "emit_report", True),
]


def read_proc_io() -> dict[str, int]:
    """This process's I/O counters.  rchar/wchar count bytes passed through
    read/write syscalls, most of them served from the page cache; they are
    not device I/O."""
    with open("/proc/self/io", "rb", buffering=0) as fh:
        text = fh.read(4096).decode()
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = int(value)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for label, module_name, path, span in TARGETS:
            owner, attr, original = self._resolve(module_name, path)
            if original is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, original, span)
            if owner is not None:  # a method: bind on its class only
                self._bind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "polycode" or mod_name.startswith("polycode.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, name, wrapper)

    def restore(self) -> None:
        for target, name, original in reversed(self._installed):
            setattr(target, name, original)
        self._installed.clear()

    def _bind(self, target, name, wrapper) -> None:
        self._installed.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    @staticmethod
    def _resolve(module_name: str, path: str):
        """(class or None, attribute, original function or None)."""
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            return None, None, None
        parts = path.split(".")
        owner = None
        for part in parts:
            owner, obj = obj, getattr(obj, part, None)
            if obj is None:
                return None, None, None
        return (owner if len(parts) > 1 else None), parts[-1], obj

    # -- per-target hooks ---------------------------------------------------

    def _before(self, label, args, kwargs):
        """Count bytes or state before the call; may replace args."""
        c = self.counters
        if label == "gf256.xor_bytes":
            c[label + ".bytes"] += len(args[0])
        elif label == "gf256.scale_bytes":
            c[label + ".bytes"] += len(args[1])
        elif label == "gf256.xor_many":
            blocks = args[0] if args else kwargs.pop("blocks")
            args = (self._counting(label + ".bytes", blocks),) + tuple(args[1:])
        elif label == "codes.execute_plan":
            plan = args[0] if args else kwargs.get("plan")
            c[label + ".transfers"] += len(getattr(plan, "transfers", ()))
        elif label == "codes.is_recoverable_mask":
            cache = recoverable_cache()
            return args, (len(cache) if cache is not None else None)
        return args, None

    def _after(self, label, state, result) -> None:
        c = self.counters
        if label == "codes.is_recoverable_mask" and state is not None:
            if len(recoverable_cache()) == state:
                c[label + ".hits"] += 1
        elif label == "reliability.trial_rng":
            c["reliability.trials"] += 1
            expovariate = result.expovariate

            def counted(rate):  # one draw per simulated event
                c["reliability.events"] += 1
                return expovariate(rate)

            result.expovariate = counted

    def _counting(self, key, blocks):
        for blk in blocks:
            self.counters[key] += len(blk)
            yield blk

    def _wrap(self, label, fn, span):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, state = tracer._before(label, args, kwargs)
            if not span:
                result = fn(*args, **kwargs)
                tracer._after(label, state, result)
                return result
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            tracer._after(label, state, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, busy_s (outermost spans only, so recursion is
        not counted twice) and self_s (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["busy_s"] += end - start
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def recoverable_cache():
    codes = sys.modules.get("polycode.codes")
    return getattr(codes, "_RECOVERABLE_CACHE", None)
