import collections
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from polycode import reliability, schemes
from polycode.cli import REPORT_SCHEMES
from polycode.reliability import (
    DEFAULT_MODEL,
    RELIABILITY_COLUMNS,
    STRESS_MODEL,
    FailureModel,
    MarkovChain,
    build_markov_chain,
    mttdl_analytic,
    mttdl_montecarlo,
    reliability_rows,
)
from polycode.schemes import HeptagonLocal, Polygon, RaidMirror, Replication, parse_scheme

from helpers import expected_hours_reference, simulate_trial_reference

TABLE_SCHEMES = [
    Replication(2),
    Replication(3),
    Polygon(5),
    Polygon(7),
    HeptagonLocal(),
    RaidMirror(9),
    RaidMirror(11),
]


def test_failure_model_validation():
    with pytest.raises(ValueError):
        FailureModel(0, 1)
    with pytest.raises(ValueError):
        FailureModel(1, -1)
    with pytest.raises(ValueError):
        FailureModel(1, 1, "sometimes")
    m = FailureModel.from_mttf_mttr(100, 10, "serial")
    assert m.fail_rate == pytest.approx(0.01)
    assert m.repair_rate == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# fatal fractions


def fatal_fraction(scheme, failures):
    """Fraction of *failures*-node patterns that lose data, exhaustively."""
    L = scheme.code_length
    patterns = itertools.combinations(range(L), failures)
    fatal = sum(not schemes.is_recoverable(scheme, p) for p in patterns)
    return fatal / math.comb(L, failures)


def test_fatal_fraction_examples():
    assert fatal_fraction(HeptagonLocal(), 3) == 0.0
    assert fatal_fraction(Polygon(5), 3) == 1.0
    for scheme in TABLE_SCHEMES:
        assert fatal_fraction(scheme, 0) == 0.0


def test_fatal_fraction_derived_counts():
    # heptagon-local: 4-in-one-heptagon (2*C(7,4)) plus 3-in-one + global (2*C(7,3))
    assert fatal_fraction(HeptagonLocal(), 4) == pytest.approx(140 / 1365)
    # raidm-9: choose 2 of the 10 mirror pairs
    assert fatal_fraction(RaidMirror(9), 4) == pytest.approx(45 / 4845)


@pytest.mark.parametrize("scheme", [Replication(2), Replication(3), Polygon(5), HeptagonLocal()])
def test_fatal_fraction_nondecreasing(scheme):
    upper = min(scheme.code_length, 6)
    values = [fatal_fraction(scheme, f) for f in range(upper + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# analytic chain


def test_tolerance_zero_scheme_is_plain_exponential():
    model = FailureModel(0.01, 0.5)
    assert mttdl_analytic(Replication(1), model) == pytest.approx(100.0)


def test_two_rep_closed_form():
    # birth-death chain with n=2, t=1: T0 = (3*lam + mu) / (2*lam^2)
    model = FailureModel(1e-3, 0.1)
    assert mttdl_analytic(Replication(2), model) == pytest.approx(51500.0, rel=1e-9)
    serial = FailureModel(1e-3, 0.1, "serial")
    assert mttdl_analytic(Replication(2), serial) == pytest.approx(51500.0, rel=1e-9)


def test_three_rep_closed_form():
    # n=3, t=2, parallel: absorption time of the 0-1-2-loss chain
    lam, mu = 1e-3, 0.1
    model = FailureModel(lam, mu)
    # solve the 3-state chain by hand:
    # T2 = 1/(lam + 2mu) + 2mu/(lam+2mu) T1
    # T1 = 1/(2lam + mu) + 2lam/(2lam+mu) T2 + mu/(2lam+mu) T0
    # T0 = 1/(3lam) + T1
    import fractions

    l, m = fractions.Fraction(lam), fractions.Fraction(mu)
    # forward substitution
    a0, b0 = 1 / (3 * l), fractions.Fraction(1)
    denom = 2 * l + m - m * b0
    a1 = (1 + m * a0) / denom
    b1 = (2 * l) / denom
    denom2 = l + 2 * m - 2 * m * b1
    t2 = (1 + 2 * m * a1) / denom2
    t1 = a1 + b1 * t2
    t0 = a0 + b0 * t1
    assert mttdl_analytic(Replication(3), model) == pytest.approx(float(t0), rel=1e-9)


# the golden CSVs round their floats, so only an exact comparison with the
# Fraction solve catches a last-bit drift in the integer one
EXACT_MODELS = [
    DEFAULT_MODEL,
    STRESS_MODEL,
    FailureModel.from_mttf_mttr(100.0, 10.0, "serial"),
    FailureModel(0.013, 0.37, "serial"),
]


@pytest.mark.parametrize("name", REPORT_SCHEMES)
def test_integer_solve_equals_fraction_reference(name):
    scheme = parse_scheme(name)
    for model in EXACT_MODELS:
        chain = build_markov_chain(scheme, model)
        assert chain.expected_hours_to_loss() == expected_hours_reference(chain), model


def test_singular_generator_raises():
    # a transient state with no way out never absorbs
    chain = MarkovChain(((0,),), ((),), ())
    with pytest.raises(ArithmeticError):
        chain.expected_hours_to_loss()


def test_mttdl_ordering_under_default_model():
    values = {s.name: mttdl_analytic(s, DEFAULT_MODEL) for s in TABLE_SCHEMES}
    assert values["pentagon"] > values["heptagon"]
    assert values["heptagon-local"] > values["pentagon"]
    assert values["3-rep"] > values["2-rep"]


def test_chain_metadata():
    chain = build_markov_chain(HeptagonLocal(), DEFAULT_MODEL)
    assert chain.states[0] == (0, 0, 0)
    assert any("not reproduced" in note or "orderings" in note for note in chain.assumptions)
    serial_chain = build_markov_chain(HeptagonLocal(), FailureModel(0.01, 0.1, "serial"))
    assert any("serial" in note for note in serial_chain.assumptions)
    # a count chain is exact under serial repair too, so it carries no note
    count_chain = build_markov_chain(Polygon(5), FailureModel(0.01, 0.1, "serial"))
    assert not any("serial" in note for note in count_chain.assumptions)


# float.hex of mttdl_analytic per REPORT_SCHEMES scheme under each of
# EXACT_MODELS: the golden CSVs round to .10g and the Fraction reference
# solves the same chain, so only these catch a changed rate in a chain
PINNED_MTTDL_HEX = {
    "2-rep": ["0x1.871c100000000p+24", "0x1.4500000000000p+9",
              "0x1.4500000000000p+9", "0x1.2e83c977ab2bfp+10"],
    "3-rep": ["0x1.73e2c72c00000p+34", "0x1.24b5555555556p+12",
              "0x1.3a95555555556p+11", "0x1.768fb9c697de3p+13"],
    "pentagon": ["0x1.2a1efcb000000p+31", "0x1.3a2aaaaaaaaabp+9",
                 "0x1.7a55555555555p+8", "0x1.5bad3fe4a7f2bp+10"],
    "heptagon": ["0x1.5569591249249p+29", "0x1.d955555555556p+7",
                 "0x1.376db6db6db6ep+7", "0x1.cd065797766fep+8"],
    "heptagon-local": ["0x1.6d1f2034f7c87p+37", "0x1.cbaf313dca258p+8",
                       "0x1.8ec4436ce9f62p+6", "0x1.0348b765f8d46p+9"],
    "raidm-9": ["0x1.1af39e294e027p+39", "0x1.e516653e5ceddp+9",
                "0x1.9202e7dd0e8f9p+6", "0x1.2b349abbb5a55p+9"],
    "raidm-11": ["0x1.81d80718c2de6p+38", "0x1.56469b5431af0p+9",
                 "0x1.3714895e162fdp+6", "0x1.40539b7811221p+8"],
}


@pytest.mark.parametrize("name", REPORT_SCHEMES)
def test_mttdl_is_pinned_to_the_last_bit(name):
    scheme = parse_scheme(name)
    got = [mttdl_analytic(scheme, model).hex() for model in EXACT_MODELS]
    assert got == PINNED_MTTDL_HEX[name]


def _profile(scheme, mask):
    # the chain's state label: RAID+m counts mirror pairs with one host down
    # and with both down; every other scheme counts failed slots per local
    # group plus the global slot, or over all slots when it has no groups
    geo = schemes._geometry(scheme)
    if isinstance(scheme, RaidMirror):
        down = [sum((mask >> s) & 1 for s in pair) for pair in geo.placements.values()]
        return (down.count(1), down.count(2))
    parts = list(geo.groups) or [range(scheme.code_length)]
    if geo.global_slot is not None:
        parts.append((geo.global_slot,))
    return tuple(sum((mask >> s) & 1 for s in part) for part in parts)


def _mask_row(scheme, model, mask):
    # the mask's outgoing rates, summed per target profile (None: data loss),
    # with serial repair uniform over the failed slots
    lam = Fraction(model.fail_rate)
    mu = Fraction(model.repair_rate)
    failed = mask.bit_count()
    row = collections.Counter()
    for s in range(scheme.code_length):
        nxt = mask ^ (1 << s)
        if mask >> s & 1:
            row[_profile(scheme, nxt)] += mu if model.repair_mode == "parallel" else mu / failed
        else:
            row[_profile(scheme, nxt) if schemes.is_recoverable_mask(scheme, nxt) else None] += lam
    return row


@pytest.mark.parametrize("mode", ["parallel", "serial"])
@pytest.mark.parametrize("name", [*REPORT_SCHEMES, "raidm-3", "polygon-6"])
def test_chain_is_a_strong_lumping_of_the_mask_chain(name, mode):
    # every mask of a profile shares the profile's fate, and every
    # recoverable mask leaves at its state's rates to each target profile:
    # the lumped chain is then exact (Kemeny and Snell 1960, sec. 6.3)
    scheme = parse_scheme(name)
    model = FailureModel(0.013, 0.37, mode)
    chain = build_markov_chain(scheme, model)
    index = {state: i for i, state in enumerate(chain.states)}
    rows = []
    for outs in chain.transitions:
        row = collections.Counter()
        for target, rate in outs:
            row[None if target is None else chain.states[target]] += rate
        rows.append(row)
    L = scheme.code_length
    if L <= 15:
        masks = range(1 << L)
    else:
        rng = random.Random(29)
        masks = [rng.getrandbits(L) for _ in range(3000)]
    seen = set()
    for mask in masks:
        sig = _profile(scheme, mask)
        ok = schemes.is_recoverable_mask(scheme, mask)
        assert (sig in index) == ok, (sig, bin(mask))
        if ok:
            seen.add(sig)
            assert _mask_row(scheme, model, mask) == rows[index[sig]], (sig, bin(mask))
    assert chain.states[0] == _profile(scheme, 0)
    if L <= 15:
        assert seen == set(chain.states)


def test_a_profile_that_does_not_decide_fate_is_refused(monkeypatch):
    # four failures lose heptagon-local's data only in some placements, so
    # the failed count alone is no lumping of its chain
    monkeypatch.setattr(reliability, "_profiler", lambda scheme: lambda mask: (mask.bit_count(),))
    with pytest.raises(AssertionError, match="does not decide recoverability"):
        build_markov_chain(HeptagonLocal(), DEFAULT_MODEL)


def _pair_rule(scheme, mask):
    # recoverable iff at most one mirror pair is fully down
    pairs = schemes._geometry(scheme).placements.values()
    return sum(all((mask >> s) & 1 for s in pair) for pair in pairs) <= 1


@pytest.mark.parametrize("scheme", [RaidMirror(3), RaidMirror(4)])
def test_raidm_pair_rule_exhaustive(scheme):
    for mask in range(1 << scheme.code_length):
        assert schemes.is_recoverable_mask(scheme, mask) == _pair_rule(scheme, mask), bin(mask)


def test_raidm_pair_rule_sampled():
    scheme = RaidMirror(9)
    rng = random.Random(23)
    for _ in range(3000):
        mask = rng.getrandbits(scheme.code_length)
        assert schemes.is_recoverable_mask(scheme, mask) == _pair_rule(scheme, mask), bin(mask)


def test_mttdl_monotone_in_rates():
    for scheme in (Polygon(5), HeptagonLocal(), RaidMirror(9)):
        lams = [1 / 400, 1 / 200, 1 / 100]
        values = [mttdl_analytic(scheme, FailureModel(l, 0.1)) for l in lams]
        assert values[0] > values[1] > values[2]
        mus = [0.05, 0.1, 0.2]
        values = [mttdl_analytic(scheme, FailureModel(0.01, m)) for m in mus]
        assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_requires_enough_trials():
    with pytest.raises(ValueError):
        mttdl_montecarlo(Polygon(5), STRESS_MODEL, 99, seed=1)


def test_mc_tolerance_zero_matches_exponential_mean():
    model = FailureModel(0.01, 0.5)
    mc = mttdl_montecarlo(Replication(1), model, 4000, seed=2)
    assert mc.ci_low <= 100.0 <= mc.ci_high


def test_mc_deterministic_and_worker_invariant():
    a = mttdl_montecarlo(Polygon(5), STRESS_MODEL, 500, seed=3)
    b = mttdl_montecarlo(Polygon(5), STRESS_MODEL, 500, seed=3)
    assert a == b
    c = mttdl_montecarlo(Polygon(5), STRESS_MODEL, 500, seed=4)
    assert c.mean_hours != a.mean_hours
    for scheme in (RaidMirror(9), HeptagonLocal()):
        one = mttdl_montecarlo(scheme, STRESS_MODEL, 300, seed=12, workers=1)
        two = mttdl_montecarlo(scheme, STRESS_MODEL, 300, seed=12, workers=2)
        assert one == two, scheme.name


@pytest.mark.parametrize("workers,cpus,pool", [(1000, 4, 4), (1000, None, 1), (3, 8, 3),
                                               (60, 64, 50)])
def test_mc_pool_is_capped_by_chunks_and_cpus(monkeypatch, workers, cpus, pool):
    """The pool is as large as the trial chunks and the CPUs allow, never
    *workers* alone; the recorder runs each chunk inline and starts no
    process."""
    import concurrent.futures

    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(reliability.os, "cpu_count", lambda: cpus)
    capped = mttdl_montecarlo(Polygon(5), STRESS_MODEL, 100, seed=3, workers=workers)
    assert sizes == [pool]
    assert capped == mttdl_montecarlo(Polygon(5), STRESS_MODEL, 100, seed=3)


@pytest.mark.parametrize("hours", [0.0, -1.0, math.nan, math.inf])
def test_failure_model_refuses_hours_that_are_not_positive_and_finite(hours):
    for mttf, mttr in ((hours, 24.0), (1000.0, hours)):
        with pytest.raises(ValueError, match="^MTTF and MTTR hours must be positive and finite$"):
            FailureModel.from_mttf_mttr(mttf, mttr)


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_mc_checks_each_failure_mask_once_per_run(monkeypatch, mode):
    calls = collections.Counter()
    real = schemes._Geometry.recoverable

    def counting(geo, mask):
        calls[mask] += 1
        return real(geo, mask)

    monkeypatch.setattr(schemes._Geometry, "recoverable", counting)
    monkeypatch.setattr(schemes._geometry(HeptagonLocal()), "fate", {})  # a fresh table
    model = FailureModel(0.01, 0.1, mode)
    mttdl_montecarlo(HeptagonLocal(), model, 300, seed=11)
    assert calls, "the loss test was never consulted"
    assert max(calls.values()) == 1, calls.most_common(3)


TRIAL_SCHEMES = [Polygon(5), RaidMirror(9), HeptagonLocal()]
TRIAL_MODELS = {
    "parallel": STRESS_MODEL,
    "serial": FailureModel.from_mttf_mttr(100.0, 10.0, "serial"),
    # mu/lam = 2: trials reach deep failure counts
    "slow-parallel": FailureModel(0.01, 0.02),
    "slow-serial": FailureModel(0.01, 0.02, "serial"),
}


@pytest.mark.parametrize("scheme", map(parse_scheme, REPORT_SCHEMES), ids=lambda s: s.name)
@pytest.mark.parametrize("model", TRIAL_MODELS.values(), ids=TRIAL_MODELS)
def test_simulate_trial_equals_reference_loop(scheme, model):
    trial = reliability._trial_loop(scheme, model)
    ref_fate = {}
    for i in range(300):
        got = trial(reliability._trial_rng(21, i))
        want = simulate_trial_reference(scheme, model, reliability._trial_rng(21, i), ref_fate)
        assert got == want, i
    fate = schemes._geometry(scheme).fate
    assert ref_fate and all(fate[mask] == ok for mask, ok in ref_fate.items())


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
def test_bit_draw_equals_randrange(seed):
    # the trial loop inlines randrange(m) as CPython's getrandbits draw;
    # a change to random._randbelow must fail here first
    a, b = random.Random(seed), random.Random(seed)
    for m in list(range(1, 26)) * 8:
        w = m.bit_length()
        i = a.getrandbits(w)
        while i >= m:
            i = a.getrandbits(w)
        assert i == b.randrange(m)
    assert a.random() == b.random()


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
def test_exponential_draw_equals_expovariate(seed):
    # the trial loop inlines expovariate as CPython's body; a change to
    # random.expovariate must fail here first
    a, b = random.Random(seed), random.Random(seed)
    for rate in [0.05, 0.1, 0.13, 1.0, 2.6, 1e-9, 1e9] * 30:
        assert -math.log(1.0 - a.random()) / rate == b.expovariate(rate)
    assert a.random() == b.random()


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
def test_zero_bit_draw_is_zero_and_draws_nothing(seed):
    # serial repair draws its failed node with width 0
    a, b = random.Random(seed), random.Random(seed)
    assert [a.getrandbits(0) for _ in range(5)] == [0] * 5
    assert a.random() == b.random()


@pytest.mark.parametrize("scheme", TRIAL_SCHEMES, ids=lambda s: s.name)
def test_two_random_calls_per_event(monkeypatch, scheme):
    # wrap each trial's draws the way the benchmark tracer does: on the RNG
    # instance, after the module-level factory returns it
    counts = collections.Counter()
    factory = reliability._trial_rng

    def counted_rng(seed, index):
        rng = factory(seed, index)
        counts["trials"] += 1
        for name in ("random", "expovariate"):
            draw = getattr(rng, name)

            def counted(*args, name=name, draw=draw):
                counts[name] += 1
                return draw(*args)

            setattr(rng, name, counted)
        return rng

    monkeypatch.setattr(reliability, "_trial_rng", counted_rng)
    mttdl_montecarlo(scheme, STRESS_MODEL, 300, seed=31)
    assert counts["trials"] == 300
    traced = counts["random"]
    counts.clear()
    # the reference loop calls expovariate once per event by construction,
    # and the trial loop draws an event's time and its kind from random
    fate = {}
    for i in range(300):
        simulate_trial_reference(scheme, STRESS_MODEL, counted_rng(31, i), fate)
    assert traced == 2 * counts["expovariate"] > 600


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_no_python_call_per_event(mode):
    # once a trial's masks are in the fate table, running it again calls
    # no Python function: a helper or expovariate in the event loop fails
    scheme = HeptagonLocal()
    trial = reliability._trial_loop(scheme, FailureModel(0.01, 0.1, mode))
    # the longest of 20 trials, which fills the table with its masks
    hours, index = max((trial(reliability._trial_rng(5, i)), i) for i in range(20))
    calls = []
    draws = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            draws[arg.__name__] += 1

    rng = reliability._trial_rng(5, index)
    sys.setprofile(profile)
    try:
        again = trial(rng)
    finally:
        sys.setprofile(None)
    assert again == hours
    assert calls == ["trial"], calls  # the trial itself, and nothing it calls
    assert draws["random"] > 100, draws


def test_mc_doubling_repair_rate_never_hurts():
    slow = mttdl_montecarlo(Polygon(5), FailureModel(0.01, 0.05), 2000, seed=5)
    fast = mttdl_montecarlo(Polygon(5), FailureModel(0.01, 0.1), 2000, seed=5)
    assert fast.ci_high >= slow.ci_low  # monotone up to CI noise


@pytest.mark.parametrize("scheme", [Polygon(5), Replication(2), RaidMirror(3)])
def test_mc_ci_overlaps_analytic_at_stress_rates(scheme):
    analytic = mttdl_analytic(scheme, STRESS_MODEL)
    mc = mttdl_montecarlo(scheme, STRESS_MODEL, 6000, seed=9)
    assert mc.ci_low <= analytic <= mc.ci_high, (scheme.name, analytic, mc)


def test_mc_serial_mode_matches_serial_chain_for_count_schemes():
    # count chains are exact for serial repair too
    model = FailureModel(0.01, 0.1, "serial")
    analytic = mttdl_analytic(Polygon(5), model)
    mc = mttdl_montecarlo(Polygon(5), model, 6000, seed=9)
    assert mc.ci_low <= analytic <= mc.ci_high


# ---------------------------------------------------------------------------
# aggregation and reporting


def test_reliability_rows_schema():
    chains = [build_markov_chain(Replication(2), STRESS_MODEL)]
    rows = reliability_rows([Replication(2)], STRESS_MODEL, chains, trials=200, seed=8)
    assert len(rows) == 1
    assert list(rows[0]) == RELIABILITY_COLUMNS
    assert rows[0]["scheme"] == "2-rep"
    assert rows[0]["trials"] == 200
    assert not math.isnan(rows[0]["analytic_hours"])
