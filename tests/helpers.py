"""Shared test helpers."""

import random
import zlib
from fractions import Fraction
from typing import Callable, Mapping

from polycode.codes import ChecksumMismatchError, MissingBlockError, Scheme, is_recoverable_mask
from polycode.reliability import LOSS, FailureModel, MarkovChain


def make_checked_reader(blocks: Mapping[int, bytes]) -> Callable[[int], bytes]:
    """Accessor over an in-memory block map that snapshots CRC32s at
    creation and verifies them on every read."""
    crcs = {b: zlib.crc32(data) for b, data in blocks.items()}

    def reader(block_id: int) -> bytes:
        if block_id not in blocks:
            raise MissingBlockError(f"block {block_id} not available")
        data = blocks[block_id]
        if zlib.crc32(data) != crcs[block_id]:
            raise ChecksumMismatchError(f"block {block_id} failed its CRC check")
        return data

    return reader


def expected_hours_reference(chain: MarkovChain) -> float:
    """``MarkovChain.expected_hours_to_loss`` as Gauss-Jordan over
    ``Fraction``: the reference the integer solve must match exactly."""
    m = len(chain.states)
    # (R_i) T_i - sum_j r_ij T_j = 1 over non-absorbing states
    a = [[Fraction(0)] * m for _ in range(m)]
    rhs = [Fraction(1)] * m
    for i, outs in enumerate(chain.transitions):
        a[i][i] = sum(r for _, r in outs)
        for target, rate in outs:
            if target is not LOSS:
                a[i][target] -= rate
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular chain generator")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / a[col][col]
        a[col] = row = [v * inv for v in a[col]]
        rhs[col] = rhs[col] * inv
        nonzero = [(j, v) for j, v in enumerate(row) if v != 0]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                target = a[r]
                for j, v in nonzero:
                    target[j] -= f * v
                rhs[r] = rhs[r] - f * rhs[col]
    return float(rhs[0])


def simulate_trial_reference(
    scheme: Scheme, model: FailureModel, rng: random.Random, fate: dict[int, bool]
) -> float:
    """``reliability._simulate_trial`` with plain ``randrange`` draws and
    rates computed per event: the reference the tabled loop must match."""
    n = scheme.code_length
    lam = model.fail_rate
    mu = model.repair_rate
    parallel = model.repair_mode == "parallel"
    up = list(range(n))
    failed: list[int] = []
    mask = 0
    t = 0.0
    while True:
        k = len(failed)
        frate = (n - k) * lam
        rrate = k * mu if parallel else (mu if k else 0.0)
        total = frate + rrate
        t += rng.expovariate(total)
        if rng.random() * total < frate:
            i = rng.randrange(n - k)
            node = up[i]
            up[i] = up[-1]
            up.pop()
            failed.append(node)
            mask |= 1 << node
            ok = fate.get(mask)
            if ok is None:
                ok = fate[mask] = is_recoverable_mask(scheme, mask)
            if not ok:
                return t
        else:
            i = rng.randrange(k) if parallel else 0  # serial repairs oldest first
            node = failed.pop(i)
            mask &= ~(1 << node)
            up.append(node)
