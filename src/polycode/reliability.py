"""MTTDL estimation: an exact absorbing Markov chain per scheme plus an
event-driven Monte Carlo simulator whose loss condition is the exact
decodability oracle.

Chain state spaces
------------------
One builder serves every scheme.  It walks the failure masks from all-up
and lumps them by a profile read from the scheme's geometry: the failed
count in each local group plus the global slot, or over all slots when the
scheme has no groups, and for RAID+m's interchangeable mirror pairs (pairs
with one node down, pairs fully down).  The labels are ``(i,)`` for
replication and polygons, ``(a, b)`` for RAID+m and ``(a, b, g)`` for
heptagon-local.  The lumped chain is exact when the lumping is strong
(Kemeny and Snell, *Finite Markov Chains*, 1960, sec. 6.3): every mask of a
profile shares its fate and leaves at the same rates to each target
profile.  The walk raises ``AssertionError`` when it meets a recoverable
and a fatal mask of one profile, and the tests check both conditions mask
by mask for every reported scheme.

With parallel repair these lumpings are exact.  With serial (one-at-a-time,
oldest-first) repair the chain approximates the repair target as uniform
over failed nodes, which is exact for the one-component count profiles.
Published absolute MTTDL figures for these schemes depend on rate constants
that are not public, so this module is for orderings and cross-checks, not
for reproducing tabulated values; both caveats are carried in
``MarkovChain.assumptions``.

The chain is solved in integers: every rate is a ``Fraction`` (of a float,
so its denominator is a power of two unless serial repair divides it), each
generator row is scaled by the LCM of its denominators, and fraction-free
Bareiss elimination yields the expected time as one exact quotient, so the
float it returns is the correctly rounded exact answer.

Monte Carlo trials are independent and derive their RNG from
``(seed, trial index)``, so partitioning trials across workers changes
nothing about the merged estimate.  The loss test reads the scheme
geometry's table from failure mask to fate (``_Geometry.fate``), one per
scheme in each process, filled the first time a mask occurs.  The event
rates and the bit width of each node draw are read from small tables
indexed by the failed count, built once per scheme and model by
``_trial_loop``.  An event is two ``random`` draws, its time (the body of
``expovariate``, inlined) and its kind, then the node draw's
``getrandbits`` calls: the same draws, in the same order, as
``expovariate``, ``random`` and ``randrange``.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from fractions import Fraction

from .schemes import Scheme, _Record, _geometry, is_recoverable_mask

HOURS_PER_YEAR = 8760.0


class FailureModel(_Record, frozen=True):
    fail_rate: float  # per-node failures per hour
    repair_rate: float  # per-failed-node repairs per hour
    repair_mode: str = "parallel"  # "parallel" | "serial"

    def _check(self):
        if not (0 < self.fail_rate < math.inf and 0 < self.repair_rate < math.inf):
            raise ValueError("rates must be positive and finite")
        if self.repair_mode not in ("parallel", "serial"):
            raise ValueError(f"unknown repair mode: {self.repair_mode}")

    @classmethod
    def from_mttf_mttr(
        cls, mttf_hours: float, mttr_hours: float, repair_mode: str = "parallel"
    ) -> "FailureModel":
        if not (0 < mttf_hours < math.inf and 0 < mttr_hours < math.inf):
            raise ValueError("MTTF and MTTR hours must be positive and finite")
        return cls(1.0 / mttf_hours, 1.0 / mttr_hours, repair_mode)


# MTTF 4 years, MTTR 1 day, parallel repair: a defensible default for
# ordering experiments.
DEFAULT_MODEL = FailureModel.from_mttf_mttr(4 * HOURS_PER_YEAR, 24.0)

# fast rates so Monte Carlo absorbs quickly; used to cross-check the chain
STRESS_MODEL = FailureModel.from_mttf_mttr(100.0, 10.0)


# ---------------------------------------------------------------------------
# Absorbing chain

LOSS = None  # transition target marking the absorbing data-loss state


class MarkovChain(_Record, frozen=True):
    """Absorbing chain over a scheme's survivable failure profiles.

    ``states[0]`` is the all-up state; ``transitions[i]`` lists
    ``(target state index or LOSS, rate)`` with rates in 1/hours.
    """

    states: tuple[tuple, ...]
    transitions: tuple[tuple[tuple[int | None, Fraction], ...], ...]
    assumptions: tuple[str, ...]

    def expected_hours_to_loss(self) -> float:
        """Expected absorption time from the all-up state, solved exactly.

        The system is (R_i) T_i - sum_j r_ij T_j = 1 over the transient
        states.  Each row is scaled by the LCM of its rates' denominators,
        so every entry is an integer, and fraction-free (Bareiss) elimination
        runs with the columns in reverse order: the last pivot row then
        reads ``den * T_0 = num``.  The quotient is the exact rational the
        system defines, rounded once to a float.
        """
        m = len(self.states)
        rows = []
        for i, outs in enumerate(self.transitions):
            scale = math.lcm(*(r.denominator for _, r in outs))
            row = [0] * (m + 1)  # row[m - 1 - j] holds T_j's coefficient
            row[m] = scale  # the right-hand side, 1 * scale
            for target, rate in outs:
                r = rate.numerator * (scale // rate.denominator)
                row[m - 1 - i] += r
                if target is not LOSS:
                    row[m - 1 - target] -= r
            rows.append(row)
        num, den = _bareiss_last_row(rows)
        try:
            return num / den  # int / int rounds the exact quotient correctly
        except OverflowError:
            raise ValueError("the MTTDL is beyond the float range, over 1.8e+308 hours") from None


def _bareiss_last_row(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination of the integer system ``rows`` (each row
    its coefficients then its right-hand side), with row pivoting.  Returns
    the last row's (right-hand side, pivot): after elimination that row
    reads ``pivot * x_last = rhs``.  Every division is exact and every
    entry is a minor of the input matrix (Bareiss, Math. Comp. 1968)."""
    n = len(rows)
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            raise ArithmeticError("singular chain generator")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p = rows[k][k]
        tail = rows[k][k + 1 :]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            if f:
                rows[i] = [0] * (k + 1) + [
                    (p * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)
                ]
            else:
                rows[i] = [0] * (k + 1) + [p * x // prev for x in row[k + 1 :]]
        prev = p
    return rows[-1][n], rows[-1][n - 1]


def _profiler(scheme: Scheme):
    """The map from a failure mask to its profile, the chain's state label:
    ``(i,)``, ``(a, b)`` for RAID+m or ``(a, b, g)`` for heptagon-local."""
    geo = _geometry(scheme)
    if not geo.groups and len(geo.placements) > 1:  # RAID+m's interchangeable pairs
        pairs = [sum(1 << s for s in slots) for slots in geo.placements.values()]
        return lambda mask: (
            sum((mask & p).bit_count() == 1 for p in pairs),
            sum(mask & p == p for p in pairs),
        )
    parts = list(geo.groups) or [range(scheme.code_length)]
    if geo.global_slot is not None:
        parts.append((geo.global_slot,))
    part_masks = [sum(1 << s for s in part) for part in parts]
    return lambda mask: tuple((mask & m).bit_count() for m in part_masks)


def build_markov_chain(scheme: Scheme, model: FailureModel) -> MarkovChain:
    """Walk the failure masks from all-up, one state per profile, each
    represented by the first mask met with it.  Every up slot fails at
    lambda (to LOSS when the new mask is fatal), every failed slot is
    repaired at mu, or mu/k with k slots failed under serial repair, and
    rates to one target profile are summed.  A recoverable and a fatal mask
    of one profile raise AssertionError: the lumping would not be strong."""
    lam = Fraction(model.fail_rate)
    mu = Fraction(model.repair_rate)
    serial = model.repair_mode == "serial"
    profile = _profiler(scheme)
    index = {profile(0): 0}
    fate = {profile(0): True}  # profile -> recoverable, for every mask met
    masks = [0]
    transitions = []
    for mask in masks:  # grows as the walk meets new profiles
        failed = mask.bit_count()
        outs: dict[int | None, Fraction] = {}
        for s in range(scheme.code_length):
            nxt = mask ^ (1 << s)
            ok = is_recoverable_mask(scheme, nxt)
            sig = profile(nxt)
            if fate.setdefault(sig, ok) != ok:
                raise AssertionError(f"profile {sig} does not decide recoverability")
            if ok and sig not in index:
                index[sig] = len(masks)
                masks.append(nxt)
            target = index[sig] if ok else LOSS
            rate = (mu / failed if serial else mu) if mask >> s & 1 else lam
            outs[target] = outs.get(target, 0) + rate
        transitions.append(tuple(outs.items()))
    states = tuple(index)
    assumptions = [
        "published absolute MTTDL tables for these schemes use uncited rate "
        "constants; this chain supports orderings and cross-checks only",
    ]
    if serial and len(states[0]) > 1:
        assumptions.append("serial repair target approximated as uniform over failed nodes")
    return MarkovChain(states, tuple(transitions), tuple(assumptions))


def mttdl_analytic(
    scheme: Scheme, model: FailureModel, chain: MarkovChain | None = None
) -> float:
    """Expected hours to data loss from the absorbing chain; *chain*, if
    given, is the scheme's chain under *model*, already built."""
    if chain is None:
        chain = build_markov_chain(scheme, model)
    return chain.expected_hours_to_loss()


# ---------------------------------------------------------------------------
# Monte Carlo


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 0x1F123BB5) ^ index)


def _trial_loop(scheme: Scheme, model: FailureModel):
    """``trial(rng)``: the hours until the first unrecoverable failure
    pattern of *scheme* under *model*, drawn from *rng*.  A mask's fate is
    read from the geometry's table, which solves it only the first time the
    process meets it.

    Rates and draw widths depend only on the failed count k, so they are
    tabled here, once per scheme and model.  ``rng.expovariate(total)`` is
    inlined as its CPython body, ``-log(1.0 - random()) / total``, and
    ``rng.randrange(m)`` as ``_randbelow_with_getrandbits``: draw
    ``m.bit_length()`` bits and redraw while the value is at least m.  Both
    consume the same random stream as the calls they replace.  Serial
    repair (oldest first) draws with width 0: ``getrandbits(0)`` is 0 and
    consumes nothing.
    """
    n = scheme.code_length
    lam = model.fail_rate
    mu = model.repair_rate
    parallel = model.repair_mode == "parallel"
    # per failed count k: (total rate, failure rate, up-draw width, failed-draw width)
    rows = []
    for k in range(n + 1):
        frate = (n - k) * lam
        total = frate + (k * mu if parallel else (mu if k else 0.0))
        rows.append((total, frate, (n - k).bit_length(), k.bit_length() if parallel else 0))
    bits = [1 << s for s in range(n)]
    geo = _geometry(scheme)
    fate = geo.fate
    recoverable = geo.recoverable
    log = math.log

    def trial(rng: random.Random) -> float:
        rand = rng.random
        getrandbits = rng.getrandbits
        up = bits.copy()
        failed = []
        k = 0  # failed nodes; n - k are up
        mask = 0
        t = 0.0
        while True:
            total, frate, up_width, failed_width = rows[k]
            t -= log(1.0 - rand()) / total
            if rand() * total < frate:
                m = n - k
                i = getrandbits(up_width)
                while i >= m:
                    i = getrandbits(up_width)
                bit = up[i]
                up[i] = up[-1]
                up.pop()
                failed.append(bit)
                k += 1
                mask |= bit
                try:
                    if not fate[mask]:
                        return t
                except KeyError:
                    if not recoverable(mask):
                        return t
            else:
                i = getrandbits(failed_width)
                while i >= k:
                    i = getrandbits(failed_width)
                bit = failed.pop(i)
                k -= 1
                mask ^= bit
                up.append(bit)

    return trial


def _run_trials(scheme: Scheme, model: FailureModel, seed: int, start: int, count: int):
    # each trial's RNG comes through the module global, so a wrapped
    # _trial_rng sees every trial
    trial = _trial_loop(scheme, model)
    return [trial(_trial_rng(seed, start + i)) for i in range(count)]


class MonteCarloResult(_Record, frozen=True):
    mean_hours: float
    ci_low: float
    ci_high: float


def _check_trials(trials: int) -> None:
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful CI")


def mttdl_montecarlo(
    scheme: Scheme,
    model: FailureModel,
    trials: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloResult:
    """Event-driven estimate of MTTDL with a normal-approximation 95% CI.

    Identical results for any *workers* value: trial i always uses the RNG
    derived from (seed, i).
    """
    _check_trials(trials)
    if workers <= 1:
        times = _run_trials(scheme, model, seed, 0, trials)
    else:
        chunk = -(-trials // workers)
        ranges = [
            (start, min(chunk, trials - start)) for start in range(0, trials, chunk)
        ]
        # imported here so that starting the CLI does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a process per chunk at most, and no more than the CPUs can run
        pool_size = min(workers, len(ranges), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [
                pool.submit(_run_trials, scheme, model, seed, start, count)
                for start, count in ranges
            ]
            times = []
            for fut in futures:  # submission order == trial order
                times.extend(fut.result())
    mean = statistics.fmean(times)
    half = 1.96 * statistics.stdev(times, mean) / math.sqrt(len(times))
    return MonteCarloResult(mean, mean - half, mean + half)


# ---------------------------------------------------------------------------
# Reporting

RELIABILITY_COLUMNS = [
    "scheme",
    "lambda",
    "mu",
    "mode",
    "analytic_hours",
    "mc_mean_hours",
    "mc_ci_low",
    "mc_ci_high",
    "trials",
    "seed",
]


def reliability_rows(
    schemes: list[Scheme],
    model: FailureModel,
    chains: list[MarkovChain],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """One row per scheme.  *chains* are the schemes' chains under
    *model*, already built by the caller.  The trial count is checked
    before any chain is solved."""
    _check_trials(trials)
    rows = []
    for scheme, chain in zip(schemes, chains):
        analytic = mttdl_analytic(scheme, model, chain)
        mc = mttdl_montecarlo(scheme, model, trials, seed, workers)
        rows.append(
            {
                "scheme": scheme.name,
                "lambda": model.fail_rate,
                "mu": model.repair_rate,
                "mode": model.repair_mode,
                "analytic_hours": analytic,
                "mc_mean_hours": mc.mean_hours,
                "mc_ci_low": mc.ci_low,
                "mc_ci_high": mc.ci_high,
                "trials": trials,
                "seed": seed,
            }
        )
    return rows
